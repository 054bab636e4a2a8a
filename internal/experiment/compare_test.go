package experiment

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
	"time"

	"treep/internal/scenario"
)

// compareOpts is a small, fast head-to-head configuration.
func compareOpts() CompareOptions {
	return CompareOptions{
		N:     80,
		Seeds: []int64{1, 2},
		Phases: []scenario.Phase{
			scenario.Churn{For: 5 * time.Second, JoinRate: 2, LeaveRate: 2},
			scenario.Settle{For: 6 * time.Second},
		},
		Scenario:        "churn",
		WarmUp:          4 * time.Second,
		LookupsPerPhase: 40,
	}
}

// TestRunCompareProducesCompleteRecords: every backend × seed × phase has
// exactly one record with lookups measured and maintenance accounted, and
// the records come ordered by (backend, seed, phase index).
func TestRunCompareProducesCompleteRecords(t *testing.T) {
	res, err := RunCompare(compareOpts())
	if err != nil {
		t.Fatalf("RunCompare: %v", err)
	}
	recs := res.Records
	wantRows := len(CompareBackends) * 2 /*seeds*/ * 2 /*phases*/
	if len(recs) != wantRows {
		t.Fatalf("got %d records, want %d", len(recs), wantRows)
	}

	type cell struct {
		backend string
		seed    int64
		idx     int
	}
	seen := map[cell]bool{}
	for i, r := range recs {
		if i > 0 {
			p := recs[i-1]
			if p.Backend > r.Backend || p.Backend == r.Backend && (p.Seed > r.Seed || p.Seed == r.Seed && p.PhaseIdx >= r.PhaseIdx) {
				t.Errorf("record %d (%s/%d/%d) sorts before record %d (%s/%d/%d)",
					i, r.Backend, r.Seed, r.PhaseIdx, i-1, p.Backend, p.Seed, p.PhaseIdx)
			}
		}
		seen[cell{r.Backend, r.Seed, r.PhaseIdx}] = true
		if r.Lookups == 0 {
			t.Errorf("%s seed=%d phase=%d: no lookups measured", r.Backend, r.Seed, r.PhaseIdx)
		}
		if r.Backend != "flood" && r.MaintMsgs == 0 {
			t.Errorf("%s seed=%d phase=%d: no maintenance traffic recorded", r.Backend, r.Seed, r.PhaseIdx)
		}
		if r.StateSize == 0 {
			t.Errorf("%s seed=%d phase=%d: StateSize = 0", r.Backend, r.Seed, r.PhaseIdx)
		}
		if r.Scenario != "churn" {
			t.Errorf("record scenario = %q, want churn", r.Scenario)
		}
	}
	for _, b := range CompareBackends {
		for _, s := range []int64{1, 2} {
			for idx := 0; idx < 2; idx++ {
				if !seen[cell{b, s, idx}] {
					t.Errorf("missing record for %s seed=%d phase=%d", b, s, idx)
				}
			}
		}
	}

	// Seed-replicated workload: for a given seed, every backend must have
	// absorbed the same join/leave schedule during the churn phase.
	joins := map[int64]map[string]int{1: {}, 2: {}}
	for _, r := range recs {
		if r.PhaseIdx == 0 {
			joins[r.Seed][r.Backend] = r.Joins
		}
	}
	for seed, byBackend := range joins {
		want := byBackend[CompareBackends[0]]
		for b, got := range byBackend {
			if got != want {
				t.Errorf("seed %d: backend %s saw %d joins, %s saw %d — timelines diverged",
					seed, b, got, CompareBackends[0], want)
			}
		}
	}

	if CompareSummary(res) == "" {
		t.Error("CompareSummary returned an empty table")
	}
}

// TestRunCompareDeterministic: the same options give byte-identical JSON.
func TestRunCompareDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("deterministic replay is a double run; skipped in -short")
	}
	run := func() []byte {
		res, err := RunCompare(compareOpts())
		if err != nil {
			t.Fatalf("RunCompare: %v", err)
		}
		out, err := json.Marshal(res.Records)
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Error("two runs with identical options produced different records")
	}
}

// TestRunCompareExport: the records survive the JSON export unchanged.
func TestRunCompareExport(t *testing.T) {
	opts := compareOpts()
	opts.Seeds = []int64{1}
	opts.Backends = []string{"chord", "flood"}
	res, err := RunCompare(opts)
	if err != nil {
		t.Fatalf("RunCompare: %v", err)
	}
	data, err := json.Marshal(res.Records)
	if err != nil {
		t.Fatal(err)
	}
	var back []PhaseRecord
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("parsing exported JSON: %v", err)
	}
	if !reflect.DeepEqual(back, res.Records) {
		t.Errorf("JSON round trip changed the records:\n got %+v\nwant %+v", back, res.Records)
	}
}

func sampleRecords() []PhaseRecord {
	return []PhaseRecord{
		{Backend: "treep", Scenario: "churn", Phase: "churn", PhaseIdx: 0, Seed: 2, N: 100, Alive: 96, Lookups: 50, Found: 49},
		{Backend: "flood", Scenario: "churn", Phase: "settle", PhaseIdx: 1, Seed: 2, N: 100, Alive: 98, Lookups: 50, Found: 50},
		{Backend: "treep", Scenario: "churn", Phase: "settle", PhaseIdx: 1, Seed: 1, N: 100, Alive: 97, Lookups: 50, Found: 50},
		{Backend: "treep", Scenario: "churn", Phase: "churn", PhaseIdx: 0, Seed: 1, N: 100, Alive: 97,
			Lookups: 50, Found: 45, FailPct: 10, HopMean: 2.5, MaintMsgs: 1234, MsgsPerLookup: 7.5},
	}
}

// TestRecordSortOrder: records order by (backend, seed, phase index).
func TestRecordSortOrder(t *testing.T) {
	recs := sampleRecords()
	sortRecords(recs)
	got := make([]string, len(recs))
	for i, r := range recs {
		got[i] = fmt.Sprintf("%s/%d/%s", r.Backend, r.Seed, r.Phase)
	}
	want := []string{"flood/2/settle", "treep/1/churn", "treep/1/settle", "treep/2/churn"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sorted order %v, want %v", got, want)
	}
}

// TestRecordJSONRoundTrip: the exported JSON unmarshals back losslessly.
func TestRecordJSONRoundTrip(t *testing.T) {
	recs := sampleRecords()
	data, err := json.MarshalIndent(recs, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	var back []PhaseRecord
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if len(back) != len(recs) {
		t.Fatalf("round trip has %d records, want %d", len(back), len(recs))
	}
	if back[3] != recs[3] {
		t.Errorf("record 3 changed in round trip:\n got %+v\nwant %+v", back[3], recs[3])
	}
}

// TestRunCompareRejectsBadConfig: unknown backends and unsupported phases
// error out before any trial runs.
func TestRunCompareRejectsBadConfig(t *testing.T) {
	bad := compareOpts()
	bad.Backends = []string{"treep", "pastry"}
	if _, err := RunCompare(bad); err == nil {
		t.Error("RunCompare accepted unknown backend \"pastry\"")
	}

	bad = compareOpts()
	bad.Phases = []scenario.Phase{scenario.RevivalWave{Over: time.Second}}
	if _, err := RunCompare(bad); err == nil {
		t.Error("RunCompare accepted the unsupported RevivalWave phase")
	}

	if _, err := ComparePhases("nosuch", 100); err == nil {
		t.Error("ComparePhases accepted an unknown scenario name")
	}
	for _, name := range CompareScenarios {
		if _, err := ComparePhases(name, 100); err != nil {
			t.Errorf("ComparePhases(%q): %v", name, err)
		}
	}
}
