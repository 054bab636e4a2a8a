package main

import "time"

// Virtual seconds measured per second of --seconds, per workload: sized
// so that one run's window costs about --seconds of host time on a quiet
// 2-core box. The window is a function of --seconds alone, never of how
// fast the host happens to be, so every virtual-time figure is exact for
// a (seed, seconds) pair.
const (
	churnVSPerSecond  = 12
	readsVSPerSecond  = 6
	writesVSPerSecond = 6
	udpOpsPerSecond   = 4000 // per cluster
)

// simSpecs sizes the simulated workloads from --seconds.
var simSpecs = map[string]func(seconds int) simSpec{
	"sim-churn": simChurn, "sim-reads": simReads, "sim-writes": simWrites,
}

func simChurn(seconds int) simSpec {
	return simSpec{
		name: "sim-churn", peers: 2000, settle: 10 * time.Second,
		window: time.Duration(seconds*churnVSPerSecond) * time.Second,
		slice:  500 * time.Millisecond, tick: 10 * time.Millisecond,
		kind: opLookup, rate: 20, churn: 4, zoneKill: true,
	}
}

func simReads(seconds int) simSpec {
	return simSpec{
		name: "sim-reads", peers: 2000, settle: 10 * time.Second, records: 4096,
		window: time.Duration(seconds*readsVSPerSecond) * time.Second,
		slice:  250 * time.Millisecond, tick: 10 * time.Millisecond,
		kind: opGet, rate: 2000, zipf: 0.9, shadowEvery: 10,
	}
}

func simWrites(seconds int) simSpec {
	return simSpec{
		name: "sim-writes", peers: 2000, settle: 10 * time.Second, records: 4096,
		window: time.Duration(seconds*writesVSPerSecond) * time.Second,
		slice:  250 * time.Millisecond, tick: 10 * time.Millisecond,
		kind: opPut, rate: 1000, shadowEvery: 10, readBack: 512,
	}
}

func udpMixed(seconds int) udpSpec {
	return udpSpec{
		clusters: 3, nodes: 16, settle: 3 * time.Second, idle: time.Second,
		records: 256, warmup: 1000, ops: udpOpsPerSecond * seconds, block: 1000,
	}
}
