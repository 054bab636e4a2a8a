// Command bench is the repository's benchmark: four workloads, the
// end-to-end figures a user of the overlay sees, and a traced run that
// breaks them down by layer. README.md has the tables and the reasons.
//
//	go run . -workload sim-reads -seed 1            # end-to-end metrics
//	go run . -workload sim-reads -seed 1 -trace 1   # per-layer metrics
//	go run . -all                                   # every metric of every workload
//	go run . -selfcheck -runs 10                    # repeatability table
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"text/tabwriter"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// errIncorrect marks a run that finished but failed a guard rail; its
// result line is still printed, with correct=false.
var errIncorrect = errors.New("guard rail failed")

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "one of "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "every input is generated from the seed")
	seconds := fs.Int("seconds", 10, "sizes the measured window: the work of about this many host seconds on a quiet box")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run, per-layer metrics")
	all := fs.Bool("all", false, "run every workload untraced and traced, print every metric")
	selfcheck := fs.Bool("selfcheck", false, "run every workload -runs times per half and print the repeatability table")
	runs := fs.Int("runs", 10, "runs per half for -selfcheck")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := validateDefs(); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if *seconds < 1 || *seconds > 60 || (*trace != 0 && *trace != 1) || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "bench: -seconds is 1..60, -trace is 0 or 1, and there are no positional arguments")
		return 2
	}
	switch {
	case *selfcheck:
		return selfCheck(*runs, *seconds, stdout, stderr)
	case *all:
		return runAll(*seed, *seconds, stdout, stderr)
	}

	res, err := runWorkload(*name, *seed, *seconds, *trace == 1, stderr)
	if err != nil && !errors.Is(err, errIncorrect) {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	line, jerr := json.Marshal(res)
	if jerr != nil {
		fmt.Fprintln(stderr, "bench:", jerr)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return 0
}

// runWorkload runs one workload once and returns the result line. With
// traced it makes the untraced reference pass and the traced pass and
// reports the per-layer metrics; otherwise the end-to-end metrics.
func runWorkload(name string, seed int64, seconds int, traced bool, stderr io.Writer) (result, error) {
	w, ok := workloadByName(name)
	if !ok {
		return result{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames(), ", "))
	}
	var (
		out outcome
		err error
	)
	if spec, sim := simSpecs[name]; sim {
		out, err = simWorkload(spec(seconds), seed, traced)
	} else {
		out, err = udpWorkload(udpMixed(seconds), seed, traced)
	}
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", name, err)
	}
	defs := w.endToEnd
	if traced {
		defs = w.perLayer
	}
	metrics, err := out.v.complete(defs)
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", name, err)
	}
	printTable(stderr, name, seed, defs, metrics)
	res := result{Correct: len(out.problems) == 0, Attempted: out.attempted, Failed: out.failed, Metrics: metrics}
	if len(out.problems) > 0 {
		return res, fmt.Errorf("%s: %w: %s", name, errIncorrect, strings.Join(out.problems, "; "))
	}
	return res, nil
}

// outcome is what one workload run hands back: its measurements, the
// op counts of the result line, and the guard rails it tripped.
type outcome struct {
	v                 values
	attempted, failed int
	problems          []string
}

// minOKPct is the guard rail on completed-and-correct operations.
const minOKPct = 95

// simWorkload runs a simulated workload and applies its guard rails.
func simWorkload(spec simSpec, seed int64, traced bool) (outcome, error) {
	setups := 3
	if traced {
		setups = 1 // set-up time is an end-to-end figure; the traced run does not report it
	}
	ref, err := runSim(spec, seed, setups, nil)
	if err != nil {
		return outcome{}, err
	}
	run := ref
	out := outcome{v: ref.endToEndValues()}
	okPct := out.v["op_ok_pct"]
	if traced {
		tr := newTracer()
		if run, err = runSim(spec, seed, 1, tr); err != nil {
			return outcome{}, err
		}
		if out.v, err = run.perLayerValues(ref); err != nil {
			return outcome{}, err
		}
		runProbes(out.v)
		if _, err = tr.writeSpans(spec.name); err != nil {
			return outcome{}, err
		}
		if out.v["bench.trace_mismatches"] != 0 {
			out.problems = append(out.problems, fmt.Sprintf("traced pass diverged from the untraced pass:\n  untraced %s\n  traced   %s",
				ref.exactKey(), run.exactKey()))
		}
	}
	out.attempted, out.failed = run.win.attempted(), run.win.failed()
	if okPct < minOKPct {
		out.problems = append(out.problems, fmt.Sprintf("op_ok_pct %.2f below %d", okPct, minOKPct))
	}
	if run.fault.capped {
		out.problems = append(out.problems, fmt.Sprintf("overlay did not reconverge within %v of the zone kill", reconvergeCap))
	}
	if spec.churn == 0 && run.endStructural > 0 {
		out.problems = append(out.problems, fmt.Sprintf("%d structural invariant violations on a stable overlay stayed through the %v grace",
			run.endStructural, endGraceChecks*endGrace))
	}
	return out, nil
}

// udpWorkload runs the real-socket workload and applies its guard rail.
func udpWorkload(spec udpSpec, seed int64, traced bool) (outcome, error) {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	run, err := runUDPWorkload(spec, seed, tr)
	if err != nil {
		return outcome{}, err
	}
	out := outcome{v: run.endToEndValues()}
	okPct := out.v["op_ok_pct"]
	out.attempted, out.failed = run.counts()
	if traced {
		if out.v, err = run.perLayerValues(); err != nil {
			return outcome{}, err
		}
		runProbes(out.v)
		if _, err = tr.writeSpans("udp-mixed"); err != nil {
			return outcome{}, err
		}
	}
	if okPct < minOKPct {
		out.problems = append(out.problems, fmt.Sprintf("op_ok_pct %.2f below %d", okPct, minOKPct))
	}
	return out, nil
}

// printTable writes the human-readable form of one result to stderr,
// with the machine facts every result is recorded with.
func printTable(w io.Writer, workload string, seed int64, defs []metricDef, m map[string]metricValue) {
	fmt.Fprintf(w, "# %s seed=%d  %s\n", workload, seed, machineFacts())
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	for _, d := range defs {
		fmt.Fprintf(tw, "%s\t%.6g\t%s\n", d.name, m[d.name].Value, d.unit)
	}
	tw.Flush()
}

// machineFacts is what a result depends on besides the code.
func machineFacts() string {
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d %s %s/%s kernel=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH, kernel)
}
