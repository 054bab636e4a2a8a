package sim

import (
	"math/rand"
	"sync"
)

// math/rand's source adds two taps of a 607-word register that seeding
// fills word by word from a Lehmer generator. A draw whose taps both still
// hold seeded words can be computed from the seed alone, so a stream holds
// no register until the first draw that reads a word an earlier draw wrote
// (DESIGN.md §16).
const (
	rngLen, rngTap = 607, 273
	lazyFeed       = rngLen - 2*rngTap // the last word draws 0…rngTap−1 write: 333 down to 61
	lehmerA        = 48271
	lehmerM        = 1<<31 - 1
)

var (
	rngOnce   sync.Once
	rngPow    [rngLen]uint64 // lehmerA^(21+3j) mod lehmerM: word j's first Lehmer step
	rngCooked [rngLen]uint64 // math/rand's table, solved from its draws for seed 1
)

// rngTables fills rngPow, then solves math/rand's first rngLen draws for
// seed 1 back into the words its seeding wrote, and those into rngCooked.
func rngTables() {
	for j, x := -7, uint64(1); j < rngLen; j, x = j+1, x*(lehmerA*lehmerA*lehmerA%lehmerM)%lehmerM {
		rngPow[max(j, 0)] = x // seeding's first 21 steps pass through index 0
	}
	src, out, v := rand.NewSource(1).(rand.Source64), [rngLen]uint64{}, [rngLen]uint64{}
	for i := range out {
		if out[i] = src.Uint64(); i >= rngTap { // its tap holds draw i−rngTap
			v[(2*rngLen-rngTap-1-i)%rngLen] = out[i] - out[i-rngTap]
		}
	}
	for i := range rngTap { // both of its taps hold seeded words
		v[rngLen-rngTap-1-i] = out[i] - v[rngLen-1-i]
	}
	for j := range v {
		rngCooked[j] = v[j] ^ word(1, j) // rngCooked[j] is still 0 here
	}
}

// word is register word j as math/rand seeds it.
func word(seed uint32, j int) uint64 {
	w, x := rngCooked[j], uint64(seed)*rngPow[j]%lehmerM
	for _, shift := range [3]uint{40, 20, 0} {
		w, x = w^x<<shift, x*lehmerA%lehmerM
	}
	return w
}

// stream is a rand.Rand and its source in one 64-byte object.
type stream struct {
	r    rand.Rand
	seed uint32          // as math/rand normalises it
	feed uint32          // the word the last draw wrote
	reg  *[rngLen]uint64 // math/rand's register, once a draw needs it
}

// NewRand returns a rand.Rand that draws what rand.New(rand.NewSource(seed)) draws.
func NewRand(seed int64) *rand.Rand { return &newStream(seed).r }

func newStream(seed int64) *stream {
	rngOnce.Do(rngTables)
	s := &stream{}
	s.Seed(seed)
	s.r = *rand.New(s)
	return s
}

func (s *stream) Seed(seed int64) {
	s.seed, s.feed, s.reg = uint32((seed%lehmerM+lehmerM)%lehmerM), rngLen-rngTap, nil
	if s.seed == 0 {
		s.seed = 89482311
	}
}

func (s *stream) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

func (s *stream) Uint64() uint64 {
	if s.reg == nil {
		return s.lazy()
	}
	return s.step()
}

// step is math/rand's draw on the register.
func (s *stream) step() uint64 {
	if s.feed == 0 {
		s.feed = rngLen
	}
	s.feed--
	tap := int(s.feed) + rngTap
	if tap >= rngLen {
		tap -= rngLen
	}
	s.reg[s.feed] += s.reg[tap]
	return s.reg[s.feed]
}

// lazy draws from seeded words alone, then builds the register.
func (s *stream) lazy() uint64 {
	if s.feed > lazyFeed {
		s.feed--
		return word(s.seed, int(s.feed)) + word(s.seed, int(s.feed)+rngTap)
	}
	s.reg = new([rngLen]uint64)
	for j := range s.reg {
		s.reg[j] = word(s.seed, j)
	}
	for j := lazyFeed; j < rngLen-rngTap; j++ { // what draws 0…rngTap−1 wrote
		s.reg[j] += s.reg[j+rngTap]
	}
	return s.step()
}
