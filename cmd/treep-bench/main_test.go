package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain lets each validation test re-execute this test binary as
// treep-bench itself: with the env marker set, the process runs main()
// and exits through treep-bench's real exit paths, so the tests observe
// the actual process exit codes users get.
func TestMain(m *testing.M) {
	if os.Getenv("TREEP_BENCH_UNDER_TEST") == "1" {
		main()
		return
	}
	os.Exit(m.Run())
}

// runBench re-executes the test binary as treep-bench with args and
// returns combined output plus the process exit code.
func runBench(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "TREEP_BENCH_UNDER_TEST=1")
	out, err := cmd.CombinedOutput()
	if err == nil {
		return string(out), 0
	}
	ee, ok := err.(*exec.ExitError)
	if !ok {
		t.Fatalf("running %v: %v", args, err)
	}
	return string(out), ee.ExitCode()
}

// TestConflictingFlagsExit2 pins the CLI contract: every flag conflict,
// mode mismatch, and malformed operand exits with status 2 and prints
// the usage synopsis, so scripts can distinguish "you called it wrong"
// from a failed run (exit 1).
func TestConflictingFlagsExit2(t *testing.T) {
	cases := []struct {
		name string
		args []string
	}{
		{"scale-and-compare", []string{"-scale", "500", "-compare", "chord"}},
		{"shards-without-scale", []string{"-shards", "2"}},
		{"budget-without-scale", []string{"-budget", "1m"}},
		{"bad-population", []string{"-scale", "abc"}},
		{"bad-shard-count", []string{"-scale", "100", "-shards", "-3"}},
		{"stray-operand", []string{"extra"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			out, code := runBench(t, tc.args...)
			if code != 2 {
				t.Errorf("%v exited %d, want 2\noutput:\n%s", tc.args, code, out)
			}
			if !strings.Contains(out, "Flags:") {
				t.Errorf("%v did not print usage\noutput:\n%s", tc.args, out)
			}
		})
	}
}

// TestScaleChurnRow runs a real (tiny) -scale invocation end to end on
// both engines and checks the exported table carries one row per engine
// configuration, keyed by (n, shards), with the sharded row's speedup
// column filled against itself.
func TestScaleChurnRow(t *testing.T) {
	if testing.Short() {
		t.Skip("runs two real scale points")
	}
	dir := t.TempDir()
	out, code := runBench(t, "-scale", "80", "-shards", "0,1", "-lookups", "5", "-out", dir)
	if code != 0 {
		t.Fatalf("scale run exited %d\noutput:\n%s", code, out)
	}
	data, err := os.ReadFile(filepath.Join(dir, "scale-churn.json"))
	if err != nil {
		t.Fatal(err)
	}
	var rows []struct {
		N       int     `json:"n"`
		Shards  int     `json:"shards"`
		Events  uint64  `json:"events"`
		Speedup float64 `json:"speedup"`
	}
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("scale-churn.json has %d rows, want 2:\n%s", len(rows), data)
	}
	for i, r := range rows {
		if r.N != 80 || r.Shards != i || r.Events == 0 {
			t.Errorf("row %d keyed (n=%d, shards=%d) with %d events, want (80, %d) and events > 0", i, r.N, r.Shards, r.Events, i)
		}
	}
	// The classic row has no sharded reference; the shards=1 row is its own.
	if rows[0].Speedup != 0 || rows[1].Speedup != 1 {
		t.Errorf("speedup column = (%v, %v), want (0, 1)", rows[0].Speedup, rows[1].Speedup)
	}
	var keys []map[string]json.RawMessage
	if err := json.Unmarshal(data, &keys); err != nil {
		t.Fatal(err)
	}
	if _, ok := keys[1]["speedup"]; !ok {
		t.Errorf("the shards=1 row carries no speedup key:\n%s", data)
	}
}
