package svc

import (
	"errors"
	"testing"
	"time"

	"treep/internal/proto"
)

// TestLateResponseMissesTheNextCall: a call that timed out hands its record
// to the next call. Its late response must be absorbed by the id check,
// not delivered to the call that now holds the record.
func TestLateResponseMissesTheNextCall(t *testing.T) {
	c, planes := planeCluster(t, 8, 9)
	slow := func(i int, after time.Duration) {
		nd := c.Nodes[i]
		planes[i].srv = fetchServer(func(req *proto.DHTFetch, respond func(proto.SvcMessage)) {
			key := req.Key
			nd.SetTimer(after, func() { respond(&proto.DHTFetchReply{Found: true, Version: uint64(key)}) })
		})
	}
	slow(4, time.Second)
	slow(5, 2*time.Second)
	var first []error
	var second []uint64
	planes[0].Call(c.Nodes[4].Addr(), &proto.DHTFetch{Key: 1}, CallOpts{Timeout: 500 * time.Millisecond},
		func(_ proto.SvcMessage, err error) { first = append(first, err) })
	c.Run(600 * time.Millisecond)
	// The first call has timed out; its answer arrives while this one waits.
	planes[0].Call(c.Nodes[5].Addr(), &proto.DHTFetch{Key: 2}, CallOpts{Timeout: 3 * time.Second},
		func(r proto.SvcMessage, err error) {
			if err != nil {
				t.Errorf("second call: %v", err)
				return
			}
			second = append(second, r.(*proto.DHTFetchReply).Version)
		})
	c.Run(5 * time.Second)
	if len(first) != 1 || !errors.Is(first[0], ErrTimeout) {
		t.Fatalf("first call answered %v, want one ErrTimeout", first)
	}
	if len(second) != 1 || second[0] != 2 {
		t.Fatalf("second call answered with versions %v, want [2]: a late answer reached it", second)
	}
	if planes[0].Pending() != 0 {
		t.Fatalf("%d calls still pending", planes[0].Pending())
	}
}
