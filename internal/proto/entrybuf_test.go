package proto

import (
	"cmp"
	"math/rand"
	"runtime/debug"
	"slices"
	"testing"
	"unsafe"
)

// TestEntryFitsItsSizeClass pins what a keep-alive's entry buffer costs: an
// Entry is 32 bytes, every class of entryClasses is a whole allocator size
// class (so a buffer of that class wastes nothing to rounding) and the table
// lists every such class up to its largest, EntryBuf hands out the smallest
// class that holds n, and a buffer of any other capacity is dropped rather
// than pooled. The allocator's classes are read off the runtime: appending n
// entries to a nil slice rounds the allocation up to its size class, so the
// capacity comes back as n exactly when n entries fill a class.
func TestEntryFitsItsSizeClass(t *testing.T) {
	if got := unsafe.Sizeof(Entry{}); got != 32 {
		t.Fatalf("proto.Entry is %d bytes, want 32", got)
	}
	fills := func(n int) bool { return cap(append([]Entry(nil), make([]Entry, n)...)) == n }
	largest := entryClasses[len(entryClasses)-1]
	for n := 1; n <= largest; n++ {
		if _, listed := slices.BinarySearch(entryClasses[:], n); listed != fills(n) {
			t.Fatalf("%d entries (%d B): a size class %v, listed %v", n, n*32, fills(n), listed)
		}
	}
	if !slices.IsSorted(entryClasses[:]) || largest*int(unsafe.Sizeof(Entry{})) != 32<<10 {
		t.Fatalf("entryClasses unsorted, or ends at %d entries, not at the 32 KiB small-object limit", largest)
	}

	if EntryBuf(0) != nil || EntryBuf(-1) != nil {
		t.Fatal("an empty update gets a buffer")
	}
	for n := 1; n <= largest+100; n++ {
		want := n // made to measure above the largest class
		for _, c := range entryClasses {
			if c >= n {
				want = c
				break
			}
		}
		if b := EntryBuf(n); len(b) != 0 || cap(b) != want {
			t.Fatalf("EntryBuf(%d): len %d cap %d, want empty with cap %d", n, len(b), cap(b), want)
		}
	}

	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection empties the pools
	for _, c := range []int{17, largest + 1} {       // between two classes, above the largest
		odd := make([]Entry, 0, c)
		putEntries(odd)
		for range 4 {
			if b := EntryBuf(c); unsafe.SliceData(b) == unsafe.SliceData(odd) {
				t.Fatalf("a buffer of capacity %d, no class, was pooled", c)
			}
		}
	}
	if raceEnabled {
		return // -race drops Puts at random
	}
	class := make([]Entry, 0, 18)
	putEntries(class)
	if b := EntryBuf(17); unsafe.SliceData(b) != unsafe.SliceData(class) {
		t.Fatal("a buffer of class 18 did not come back for 17 entries")
	}
}

// TestEntryBufNeverShared: keep-alives are composed the way core composes
// them (Acquire, then an EntryBuf filled with the update) and decoded with
// DecodePooled, with random entry counts, zero included; a random half is
// released and more are made, round after round. No two live messages may
// share any part of a backing array, and each still carries what it was
// given. This fails on a buffer put back twice (two later EntryBufs hand out
// one array) and on a buffer kept by its message after it went back to its
// class (the message and the next EntryBuf share it).
func TestEntryBufNeverShared(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1)) // a collection empties the pools
	rng := rand.New(rand.NewSource(36))
	type live struct {
		m    Message
		want []Entry
	}
	entriesOf := func(m Message) []Entry {
		if p, ok := m.(*Ping); ok {
			return p.Entries
		}
		return m.(*Pong).Entries
	}
	var msgs []live
	make1 := func() {
		want := sampleEntries(rng, rng.Intn(40))
		var m Message
		switch rng.Intn(3) {
		case 0:
			p := Acquire(TPing).(*Ping)
			p.Entries = append(EntryBuf(len(want)), want...)
			m = p
		case 1:
			p := Acquire(TPong).(*Pong)
			p.Entries = append(EntryBuf(len(want)), want...)
			m = p
		default:
			var err error
			if m, err = DecodePooled(Encode(&Ping{From: sampleRef(rng), Entries: want})); err != nil {
				t.Fatal(err)
			}
		}
		msgs = append(msgs, live{m, want})
	}
	for round := 0; round < 200; round++ {
		for len(msgs) < 64 {
			make1()
		}
		type span struct{ lo, hi uintptr }
		var spans []span
		for _, l := range msgs {
			es := entriesOf(l.m)
			if !slices.Equal(es, l.want) {
				t.Fatalf("round %d: the entries of a live %v changed under it", round, l.m.Type())
			}
			if cap(es) > 0 {
				lo := uintptr(unsafe.Pointer(unsafe.SliceData(es)))
				spans = append(spans, span{lo, lo + uintptr(cap(es))*unsafe.Sizeof(Entry{})})
			}
		}
		slices.SortFunc(spans, func(a, b span) int { return cmp.Compare(a.lo, b.lo) })
		for i := 1; i < len(spans); i++ {
			if spans[i].lo < spans[i-1].hi {
				t.Fatalf("round %d: two live messages share an entry buffer", round)
			}
		}
		rng.Shuffle(len(msgs), func(i, j int) { msgs[i], msgs[j] = msgs[j], msgs[i] })
		for _, l := range msgs[len(msgs)/2:] {
			ReleaseDecoded(l.m)
		}
		msgs = msgs[:len(msgs)/2]
	}
}
