// treep-sim runs one TreeP simulation scenario from flags and prints a
// summary: hierarchy shape, lookup performance, message accounting, and
// optional failure injection.
//
// Two modes:
//
//	-kill 0.3                     legacy one-shot kill + measure
//	-scenario churn ...           scripted timeline with live churn and
//	                              runtime invariant checking
//
// Scenarios (see internal/scenario): churn, flashcrowd, zonefail,
// partition, bridge, revival.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"treep"
)

func main() {
	n := flag.Int("n", 1000, "number of peers")
	seed := flag.Int64("seed", 1, "simulation seed")
	kill := flag.Float64("kill", 0, "fraction of peers to kill before measuring")
	lookups := flag.Int("lookups", 200, "number of lookups to measure")
	algoName := flag.String("algo", "G", "lookup algorithm: G, NG, NGSA")
	variable := flag.Bool("variable-nc", false, "capacity-driven max children instead of nc=4")
	settle := flag.Duration("settle", 10*time.Second, "repair window after the kill or scenario")

	scen := flag.String("scenario", "", "scripted scenario: churn, flashcrowd, zonefail, partition, bridge, revival")
	duration := flag.Duration("duration", 20*time.Second, "churn phase length")
	joinRate := flag.Float64("join-rate", 2, "churn joins per virtual second")
	leaveRate := flag.Float64("leave-rate", 2, "churn leaves per virtual second")
	crowd := flag.Int("crowd", 100, "flash-crowd join count")
	zoneLo := flag.Float64("zone-lo", 0.40, "zone failure: low edge as a fraction of the ID space")
	zoneHi := flag.Float64("zone-hi", 0.55, "zone failure: high edge as a fraction of the ID space")
	hold := flag.Duration("hold", 10*time.Second, "partition hold time")
	flag.Parse()

	var algo treep.Algo
	switch *algoName {
	case "G":
		algo = treep.AlgoG
	case "NG":
		algo = treep.AlgoNG
	case "NGSA":
		algo = treep.AlgoNGSA
	default:
		log.Fatalf("unknown algorithm %q", *algoName)
	}

	opts := treep.SimOptions{N: *n, Seed: *seed}
	if *variable {
		opts.Children = treep.CapacityChildren(2, 16)
	}
	nw, err := treep.NewSimNetwork(opts)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("network: n=%d seed=%d levels=%v\n", *n, *seed, nw.Levels())

	violations := 0
	if *scen != "" {
		phases, err := buildScenario(*scen, scenarioParams{
			duration: *duration, joinRate: *joinRate, leaveRate: *leaveRate,
			crowd: *crowd, zoneLo: *zoneLo, zoneHi: *zoneHi,
			hold: *hold, settle: *settle,
		})
		if err != nil {
			log.Fatal(err)
		}
		res := nw.RunScenario(phases...)
		fmt.Printf("scenario %q: +%d joins, -%d leaves, -%d zone-killed, +%d revived, alive=%d levels=%v\n",
			*scen, res.Joins, res.Leaves, res.ZoneKilled, res.Revived, nw.AliveCount(), nw.Levels())
		for _, s := range res.Samples {
			if len(s.Violations) > 0 {
				fmt.Printf("  t=%-6v %-14s alive=%-5d violations=%d\n",
					s.At, s.Phase, s.Alive, len(s.Violations))
			}
		}
		if violations = len(res.Final); violations == 0 {
			fmt.Println("invariants: all hold after settle (ring closure, tessellation coverage, parent/child, loop freedom)")
		} else {
			fmt.Printf("invariants: %d violations after settle:\n", violations)
			for _, v := range res.Final {
				fmt.Printf("  %s\n", v)
			}
		}
	} else if *kill > 0 {
		killed := nw.KillRandomFraction(*kill)
		nw.Run(*settle)
		fmt.Printf("killed %d peers (%.0f%%), settled %v, alive=%d levels=%v\n",
			killed, *kill*100, *settle, nw.AliveCount(), nw.Levels())
	}

	ok, failed, hops := 0, 0, 0
	for i := 0; i < *lookups; i++ {
		origin := (i * 7919) % nw.N()
		target := (i*104729 + 13) % nw.N()
		if !nw.Alive(origin) || !nw.Alive(target) {
			continue
		}
		res, err := nw.Lookup(origin, nw.NodeID(target), algo)
		if err != nil {
			continue
		}
		if res.Status == treep.LookupFound && res.Best.ID == nw.NodeID(target) {
			ok++
			hops += res.Hops
		} else {
			failed++
		}
	}
	total := ok + failed
	if total == 0 {
		log.Fatal("no measurable lookups")
	}
	fmt.Printf("lookups (%s): %d ok, %d failed (%.1f%%), avg hops %.2f\n",
		*algoName, ok, failed, 100*float64(failed)/float64(total),
		float64(hops)/float64(max(ok, 1)))
	// What it took, over the whole run. A false failover on the simulator's
	// loss-free links, or a TTL drop, is a bug worth reporting.
	st := nw.ProtocolStats()
	fmt.Printf("  failover: %d of %d forwards ack-solicited (%d more un-held, table full), %d failed over (%d onto a live peer, %d hedged early), %d re-issues, %d strict-regime forwards, %d TTL drops\n",
		st.LookupAcksSolicited, st.LookupsForwarded, st.LookupHeldOverflows, st.LookupFailovers,
		st.LookupFalseFailovers, st.LookupHedgesEarly, st.LookupReissues, st.LookupsStrict, st.LookupsDropped)
	if violations > 0 {
		os.Exit(1)
	}
}

type scenarioParams struct {
	duration            time.Duration
	joinRate, leaveRate float64
	crowd               int
	zoneLo, zoneHi      float64
	hold                time.Duration
	settle              time.Duration
}

// buildScenario maps a scenario name and its parameters to a phase
// timeline ending in a settle window.
func buildScenario(name string, p scenarioParams) ([]treep.ScenarioPhase, error) {
	switch name {
	case "churn":
		return []treep.ScenarioPhase{
			treep.ChurnPhase{For: p.duration, JoinRate: p.joinRate, LeaveRate: p.leaveRate},
			treep.SettlePhase{For: p.settle},
		}, nil
	case "flashcrowd":
		return []treep.ScenarioPhase{
			treep.FlashCrowdPhase{Joins: p.crowd, Over: p.duration / 4},
			treep.SettlePhase{For: p.settle},
		}, nil
	case "zonefail":
		return []treep.ScenarioPhase{
			treep.ZoneFailurePhase{Zone: treep.ZoneFraction(p.zoneLo, p.zoneHi), Settle: p.settle},
		}, nil
	case "partition":
		return []treep.ScenarioPhase{
			treep.PartitionHealPhase{Hold: p.hold, Heal: p.settle},
		}, nil
	case "bridge":
		return []treep.ScenarioPhase{
			treep.IslandsMergePhase{Hold: p.hold, Merge: p.settle},
		}, nil
	case "revival":
		return []treep.ScenarioPhase{
			treep.ZoneFailurePhase{Zone: treep.ZoneFraction(p.zoneLo, p.zoneHi), Settle: p.settle / 2},
			treep.RevivalWavePhase{Over: 5 * time.Second},
			treep.SettlePhase{For: p.settle},
		}, nil
	}
	return nil, fmt.Errorf("unknown scenario %q (want churn, flashcrowd, zonefail, partition, bridge, or revival)", name)
}
