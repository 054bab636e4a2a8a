package simrt

import (
	"hash/fnv"

	"treep/internal/rtable"
)

// StateDigest folds the cluster's complete observable end state into one
// FNV-1a hash: per node (in address order) its liveness, identity, level,
// parent, and every routing-table set entry with flags and timestamps,
// plus the network counters and the total executed event count. It is
// the equivalence oracle for the sharded engine — two runs of one seed
// at different shard counts must produce the same digest, and any
// reordering of deliveries, timer interleavings or random draws shows up
// here because routing tables accumulate exactly those decisions.
// Control plane only.
func (c *Cluster) StateDigest() uint64 {
	f := fnv.New64a()
	var buf [8]byte
	w := func(v uint64) {
		for b := 0; b < 8; b++ {
			buf[b] = byte(v >> (8 * b))
		}
		f.Write(buf[:])
	}
	wset := func(s *rtable.Set) {
		if s == nil {
			w(0)
			return
		}
		w(uint64(s.Len()))
		s.Each(func(e *rtable.Entry) {
			w(uint64(e.ID))
			w(e.Addr)
			w(uint64(e.MaxLevel)<<16 | uint64(e.Score))
			w(uint64(e.Flags))
			w(uint64(e.LastSeen))
			w(uint64(e.LastDirect))
		})
	}

	for addr := 1; addr < len(c.byAddr); addr++ {
		n := c.byAddr[addr]
		w(uint64(addr))
		if c.envs[addr].up {
			w(1)
		} else {
			w(0)
		}
		w(uint64(n.ID()))
		w(uint64(n.MaxLevel()))
		t := n.Table()
		w(uint64(t.Version()))
		if ref, ok := t.Parent(); ok {
			w(ref.Addr)
			w(uint64(ref.ID))
		} else {
			w(0)
		}
		wset(&t.Level0)
		wset(&t.Children)
		wset(&t.NbrChildren)
		wset(&t.Superiors)
		for lvl, s := range t.Bus {
			if s != nil {
				w(uint64(lvl))
				wset(s)
			}
		}
	}

	st := c.Net.Stats()
	w(st.Sent)
	w(st.Delivered)
	w(st.LostRandom)
	w(st.LostDead)
	w(st.LostFiltered)
	w(st.Bytes)
	w(c.Events())
	return f.Sum64()
}
