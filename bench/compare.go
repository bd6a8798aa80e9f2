package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"text/tabwriter"
)

// declaration mirrors the parts of BENCHMARK.json -compare needs.
type declaration struct {
	EndToEnd []declaredMetric `json:"end_to_end"`
	PerLayer []declaredMetric `json:"per_layer"`
}

type declaredMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readDeclaration(path string) (*declaration, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d declaration
	if err := json.Unmarshal(buf, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &d, nil
}

// runValue is one recorded run's value of a metric.
type runValue struct {
	seed  uint64
	value float64
}

// recordSet is one -out file: workload → metric → one value per run, and the
// stamp all its runs share.
type recordSet struct {
	runs    map[string]map[string][]runValue
	host    hostStamp
	seconds float64
}

// readRecords reads a -out file and refuses one whose runs were not all
// recorded on the same host, toolchain and --seconds: their medians would
// pool numbers that do not belong together.
func readRecords(path string) (*recordSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := &recordSet{runs: map[string]map[string][]runValue{}}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	first := true
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if first {
			set.host, set.seconds, first = rec.Host, rec.Seconds, false
		} else if rec.Host != set.host || rec.Seconds != set.seconds {
			return nil, fmt.Errorf("%s:%d: recorded with %+v, --seconds %g; earlier lines with %+v, --seconds %g",
				path, line, rec.Host, rec.Seconds, set.host, set.seconds)
		}
		if set.runs[rec.Workload] == nil {
			set.runs[rec.Workload] = map[string][]runValue{}
		}
		for name, m := range rec.Metrics {
			set.runs[rec.Workload][name] = append(set.runs[rec.Workload][name], runValue{rec.Seed, m.Value})
		}
	}
	return set, sc.Err()
}

func values(runs []runValue) []float64 {
	out := make([]float64, len(runs))
	for i, r := range runs {
		out[i] = r.value
	}
	return out
}

// exactMetrics are computed, not timed: for one seed they repeat bit for
// bit, so two record files over the same seeds are first held to that.
var exactMetrics = map[string]bool{"wire_bytes_per_step": true, "virtual_images_per_s": true}

// identical reports whether both sets hold the same seeds, each exactly once,
// with the same value per seed.
func identical(base, cur []runValue) bool {
	if len(base) != len(cur) {
		return false
	}
	bySeed := make(map[uint64]float64, len(base))
	for _, r := range base {
		bySeed[r.seed] = r.value
	}
	if len(bySeed) != len(base) {
		return false
	}
	for _, r := range cur {
		if v, ok := bySeed[r.seed]; !ok || v != r.value {
			return false
		}
		delete(bySeed, r.seed)
	}
	return true
}

// Verdicts of one (workload, metric) pair.
const (
	verdictOK         = "ok"
	verdictRegression = "REGRESSION"
	verdictUnresolved = "unresolved"
	verdictIdentical  = "identical" // an exact metric, equal seed by seed
	verdictReported   = "-"         // per-layer metrics carry no bound
)

// judge applies a metric's bound to a base and a new set of runs. noise is
// the wider of the two sets' interquartile spreads; the verdict compares it
// and the bound with how far the new median moved in the bad direction, as a
// share of the base median. A pair whose noise exceeds the bound cannot be
// called unchanged: it is unresolved, unless the move is a regression larger
// than the noise too.
func judge(d declaredMetric, bounded bool, base, cur []float64) (noise float64, verdict string) {
	var worse float64
	mb, mc := median(base), median(cur)
	if mb != 0 {
		worse = (mc - mb) / mb
		if d.Better == "higher" {
			worse = -worse
		}
	}
	noise = max(spread(base), spread(cur))
	switch {
	case !bounded:
		verdict = verdictReported
	case worse > d.Bound && worse > noise:
		verdict = verdictRegression
	case noise > d.Bound:
		verdict = verdictUnresolved
	default:
		verdict = verdictOK
	}
	return noise, verdict
}

// compareFiles prints one row per (workload, metric) found in both record
// files and returns an error when any bounded metric regressed.
func compareFiles(declPath, basePath, curPath string, w io.Writer) error {
	decl, err := readDeclaration(declPath)
	if err != nil {
		return err
	}
	base, err := readRecords(basePath)
	if err != nil {
		return err
	}
	cur, err := readRecords(curPath)
	if err != nil {
		return err
	}
	if base.host != cur.host || base.seconds != cur.seconds {
		return fmt.Errorf("%s was recorded with %+v, --seconds %g and %s with %+v, --seconds %g: not comparable",
			basePath, base.host, base.seconds, curPath, cur.host, cur.seconds)
	}
	var workloads []string
	for name := range base.runs {
		if cur.runs[name] != nil {
			workloads = append(workloads, name)
		}
	}
	sort.Strings(workloads)

	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tunit\tbetter\tbound\tbase median [q1, q3] (n)\tnew median [q1, q3] (n)\tnew/base\tspread\tverdict")
	regressions := 0
	row := func(wl string, d declaredMetric, bounded bool) {
		br, cr := base.runs[wl][d.Name], cur.runs[wl][d.Name]
		if len(br) == 0 || len(cr) == 0 {
			return
		}
		b, c := values(br), values(cr)
		noise, verdict := judge(d, bounded, b, c)
		if exactMetrics[d.Name] && identical(br, cr) {
			verdict = verdictIdentical
		}
		if verdict == verdictRegression {
			regressions++
		}
		bound := "-"
		if bounded {
			bound = fmt.Sprintf("%g%%", 100*d.Bound)
		}
		cell := func(xs []float64) string {
			q1, q3 := quartiles(xs)
			return fmt.Sprintf("%.6g [%.6g, %.6g] (%d)", median(xs), q1, q3, len(xs))
		}
		ratio := "-"
		if mb := median(b); mb != 0 {
			ratio = fmt.Sprintf("%.4f of %.6g", median(c)/mb, mb)
		}
		fmt.Fprintf(tw, "%s\t%s\t%s\t%s\t%s\t%s\t%s\t%s\t%.1f%%\t%s\n",
			wl, d.Name, d.Unit, d.Better, bound, cell(b), cell(c), ratio, 100*noise, verdict)
	}
	for _, wl := range workloads {
		for _, d := range decl.EndToEnd {
			row(wl, d, true)
		}
		for _, d := range decl.PerLayer {
			row(wl, d, false)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if regressions > 0 {
		return fmt.Errorf("%d (workload, metric) pairs regressed beyond their bound", regressions)
	}
	return nil
}
