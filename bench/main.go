// Command bench is the repo's benchmark: five named workloads over the live
// TCP runtime and the simulator, six end-to-end metrics, and a per-layer
// ladder measured from outside by timing calls into internal/... packages.
//
//	bash bench/run.sh --workload tcp-arsgd-comm --seed 3 --seconds 24 --trace 0
//	bash bench/run.sh --workload sim-cost-mix --seed 3 --seconds 24 --trace 1 --traceout t.json
//	bash bench/run.sh --compare a.jsonl b.jsonl
//
// The last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics; everything else goes to standard error.
// README.md in this directory documents the metrics and workloads.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// metric is one named measurement with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the contract object printed as the last line of stdout.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// record is one line of a -out file: the result plus what is needed to
// compare it later (workload, seed, host, per-repetition sample count).
type record struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Reps     int     `json:"reps"`
	Iters    []int   `json:"iters"`
	// RepValues are the repetitions' own values (end-to-end runs only).
	RepValues repValues `json:"rep_values"`
	Host      hostStamp `json:"host"`
	// HostRefMs is the mean of the run's reference-kernel times (host.go):
	// how fast the host was, never applied to a metric.
	HostRefMs float64   `json:"host_ref_ms"`
	Time      time.Time `json:"time"`
	Failures  []string  `json:"failures,omitempty"`
	result
}

func main() {
	os.Exit(run(os.Args[1:], 1, os.Stdout, os.Stderr))
}

// run is the command. scale multiplies the frozen iteration counts: 1 from
// main, a small value from the smoke test.
func run(args []string, scale float64, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (see README.md)")
	seed := fs.Uint64("seed", 1, "seed every input is generated from")
	seconds := fs.Float64("seconds", 24, "seconds of wall time to repeat the workload for")
	traced := fs.Int("trace", 0, "1 = traced run printing the per-layer metrics; 0 = end-to-end metrics")
	traceOut := fs.String("traceout", "", "with -trace 1: write the Chrome trace of the traced repetition here")
	outPath := fs.String("out", "", "append the run's record as one JSON line to this file")
	compare := fs.Bool("compare", false, "compare two -out files given as arguments, applying the bounds of BENCHMARK.json in the working directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "bench: -compare needs two record files")
			return 2
		}
		if err := compareFiles("BENCHMARK.json", fs.Arg(0), fs.Arg(1), stdout); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		return 0
	}

	host := readHostStamp()
	if host.DegradedHost {
		warnDegraded()
	}
	w, err := findWorkload(buildWorkloads(*seed, scale), *name)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	fmt.Fprintf(stderr, "bench: %s seed=%d seconds=%g trace=%d | nproc=%d GOMAXPROCS=%d %s %q avx2=%v\n",
		w.name, *seed, *seconds, *traced, host.NumCPU, host.GOMAXPROCS, host.GoVersion, host.CPUModel, host.AVX2)

	out := &outcome{}
	var metrics map[string]metric
	if *traced == 0 {
		warmUp(w, out, stderr)
		timedReps(w, *seconds, out, stderr)
		metrics = endToEnd(w, out)
	} else {
		metrics, err = tracedRun(w, *seed, *seconds, *traceOut, out, stderr)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if len(out.reps) == 0 {
		out.chk.failf("no repetition completed")
	}
	for _, f := range out.chk.failures {
		fmt.Fprintln(stderr, "bench: CHECK FAILED:", f)
	}

	rec := record{
		Workload: w.name, Seed: *seed, Seconds: *seconds, Trace: *traced != 0,
		Reps: len(out.reps), Host: host, HostRefMs: mean(out.hostRefMs), Time: time.Now().UTC(), Failures: out.chk.failures,
		result: result{
			Correct:   len(out.chk.failures) == 0,
			Attempted: max(1, out.attempted),
			Failed:    out.failed,
			Metrics:   metrics,
		},
	}
	for _, c := range w.cases {
		rec.Iters = append(rec.Iters, c.spec.Iters)
	}
	if *traced == 0 {
		rec.RepValues = out.repValues()
		for _, s := range []struct {
			name string
			xs   []float64
		}{{"steps/s", rec.RepValues.StepsPerS}, {"cpu ms/step", rec.RepValues.CPUMs}, {"setup s", rec.RepValues.SetupS}} {
			q1, q3 := quartiles(s.xs)
			fmt.Fprintf(stderr, "bench: %-11s over %d repetitions: least %.4g  median %.4g [%.4g, %.4g]  greatest %.4g\n",
				s.name, len(s.xs), least(s.xs), median(s.xs), q1, q3, greatest(s.xs))
		}
		fmt.Fprintf(stderr, "bench: steps_per_s and cpu_ms_per_step are the fastest of %d slices\n", len(rec.RepValues.Slices))
	}
	fmt.Fprintf(stderr, "bench: host reference kernel %.1f ms (mean of %d)\n", rec.HostRefMs, len(out.hostRefMs))
	if *outPath != "" {
		if host.DegradedHost {
			fmt.Fprintln(stderr, "bench: degraded host, not recording to", *outPath)
		} else if err := appendRecord(*outPath, rec); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	line, err := json.Marshal(rec.result)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rec.Correct {
		return 1
	}
	return 0
}

// appendRecord appends rec as one JSON line to path.
func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
