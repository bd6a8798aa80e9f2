package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync/atomic"
	"time"

	"disttrain/internal/api"
	"disttrain/internal/core"
	"disttrain/internal/live"
	"disttrain/internal/trace"
)

// repResult is what one repetition of a workload measured. A repetition is
// a closed loop: every rank (or simulated worker) starts its next iteration
// when its previous one completes, for a fixed iteration count.
type repResult struct {
	attempted int // worker-iterations the repetition set out to run
	completed int // worker-iterations that finished

	timedSec float64 // START barrier → last DONE (live); wall around core.Run (sim)
	setupSec float64 // everything else the repetition's calls took
	cpuSec   float64 // process user+sys CPU over cpuSteps of the timed region
	cpuSteps int

	wireBytes  int64   // xport bytes sent (live) or modelled bytes (sim)
	virtualSec float64 // Σ simulated makespan (sim cases only)
	images     float64 // Σ images the virtual clock covers (timing batch × steps)
	msgs       int64   // simulated messages (sim cases only)
	losses     []float64
	peakRSSMB  float64 // resident-set high-water mark of this repetition

	// Virtual seconds the simulated workers spent computing, on the network
	// and aggregating (sim cases only; Summary's split of VirtualSec).
	virtCompute, virtNetwork, virtAgg float64

	// slices cut the timed region into stretches of a few tenths of a second;
	// the three timing metrics are taken from them (endToEnd).
	slices []slice
}

// slice is one stretch of a repetition's timed region: the wall and CPU
// seconds a fixed piece of work took. Slices of one kind did the same work —
// on a live workload every slice is the same number of completed iterations
// (kind 0), in a simulator mix kind i is case i's core.Run.
type slice struct {
	Kind    int     `json:"kind"`
	Steps   int     `json:"steps"`
	WallSec float64 `json:"wall_s"`
	CPUSec  float64 `json:"cpu_s"`
}

func (r repResult) stepsPerSec() float64 { return float64(r.completed) / r.timedSec }

// checker collects output-verification failures; a run is correct when it
// collected none.
type checker struct{ failures []string }

func (c *checker) failf(format string, args ...any) {
	c.failures = append(c.failures, fmt.Sprintf(format, args...))
}

// gapRecorder timestamps every WithProgress callback per rank; the gaps
// between a rank's consecutive callbacks are its iteration times. Each rank
// calls from its own goroutine and touches only its own slot.
type gapRecorder struct {
	last []time.Time
	gaps [][]float64 // per rank, milliseconds
}

func newGapRecorder(ranks int) *gapRecorder {
	return &gapRecorder{last: make([]time.Time, ranks), gaps: make([][]float64, ranks)}
}

func (g *gapRecorder) note(rank int) {
	now := time.Now()
	if prev := g.last[rank]; !prev.IsZero() {
		g.gaps[rank] = append(g.gaps[rank], now.Sub(prev).Seconds()*1e3)
	}
	g.last[rank] = now
}

// reset forgets the previous repetition's last timestamps so the idle time
// between repetitions is not counted as an iteration.
func (g *gapRecorder) reset() {
	for i := range g.last {
		g.last[i] = time.Time{}
	}
}

func (g *gapRecorder) all() []float64 {
	var out []float64
	for _, r := range g.gaps {
		out = append(out, r...)
	}
	return out
}

// cut is one sample of the wall clock and the process's CPU time.
type cut struct {
	wall time.Time
	cpu  float64
}

// liveRep runs one repetition of a live case over loopback TCP. tr and gaps
// are nil in untraced end-to-end runs.
func liveRep(c runCase, tr *trace.Tracer, gaps *gapRecorder) (repResult, *live.Result, error) {
	rep := repResult{attempted: c.steps()}
	t0 := time.Now()
	cfg, err := c.config()
	if err != nil {
		return rep, nil, err
	}

	// The timed region is cut where the ranks' completed iterations reach
	// ranks, ranks+k, ranks+2k, …: wall clock and process CPU are sampled at
	// each cut, so every slice holds k steps. The first cut brackets the region
	// from inside — by then every rank has paid for about one step (in lock
	// step exactly one), and the process's set-up work (model construction,
	// rendezvous) stays out of the per-step cost.
	ranks := c.spec.Workers
	k := min(c.sliceIters*ranks, rep.attempted-ranks)
	cuts := make([]cut, 1+(rep.attempted-ranks)/k)
	var done atomic.Int64
	opts := []live.Option{live.WithProgress(func(rank, iter int, loss float64) {
		// Each count is seen by one rank only, so each cut has one writer.
		if n := int(done.Add(1)) - ranks; n >= 0 && n%k == 0 {
			cuts[n/k] = cut{time.Now(), cpuSeconds()}
		}
		if gaps != nil {
			gaps.note(rank)
		}
	})}
	if tr != nil {
		opts = append(opts, live.WithTracer(tr))
	}
	if gaps != nil {
		gaps.reset()
	}
	res, err := live.RunLoopback(cfg, opts...)
	call := time.Since(t0).Seconds()
	if err != nil {
		return rep, nil, fmt.Errorf("%s: %w", c.label, err)
	}
	for _, n := range res.WorkerIters {
		rep.completed += n
	}
	rep.timedSec = res.WallSec
	rep.setupSec = call - res.WallSec
	if int(done.Load()) == rep.attempted {
		for i := 1; i < len(cuts); i++ {
			rep.slices = append(rep.slices, slice{Steps: k,
				WallSec: cuts[i].wall.Sub(cuts[i-1].wall).Seconds(), CPUSec: cuts[i].cpu - cuts[i-1].cpu})
		}
		rep.cpuSec, rep.cpuSteps = cuts[len(cuts)-1].cpu-cuts[0].cpu, k*(len(cuts)-1)
	}
	rep.wireBytes = res.Net.BytesSent
	rep.losses = []float64{res.FinalTrainLoss}
	return rep, res, nil
}

// simRep runs one repetition of a simulator workload: its cases back to
// back, each timed around core.Run.
func simRep(cases []runCase, tr *trace.Tracer) (repResult, error) {
	var rep repResult
	for _, c := range cases {
		rep.attempted += c.steps()
	}
	for i, c := range cases {
		t0 := time.Now()
		cfg, err := c.config()
		if err != nil {
			return rep, err
		}
		cfg.Tracer = tr
		t1, cpu0 := time.Now(), cpuSeconds()
		res, err := core.Run(context.Background(), cfg)
		if err != nil {
			return rep, fmt.Errorf("%s: %w", c.label, err)
		}
		sl := slice{Kind: i, Steps: res.Metrics.TotalIters(), WallSec: time.Since(t1).Seconds(), CPUSec: cpuSeconds() - cpu0}
		rep.slices = append(rep.slices, sl)
		steps := sl.Steps
		rep.timedSec += sl.WallSec
		rep.cpuSec += sl.CPUSec
		rep.setupSec += t1.Sub(t0).Seconds()
		rep.completed += steps
		rep.cpuSteps += steps
		rep.wireBytes += res.Net.TotalBytes
		rep.msgs += res.Net.TotalMsgs
		rep.virtualSec += res.VirtualSec
		rep.images += float64(steps * cfg.Workload.Batch)
		rep.losses = append(rep.losses, res.FinalTrainLoss)
		sum := res.Summary()
		rep.virtCompute += sum.ComputeSec
		rep.virtNetwork += sum.NetworkSec
		rep.virtAgg += sum.LocalAggSec + sum.GlobalAggSec
	}
	return rep, nil
}

// simTwin runs the simulator on a live case's exact config and returns the
// modelled cluster's throughput for it. With bitIdentical it also holds the
// live result to the repo's contract: final parameters and loss equal the
// simulator's bit for bit.
func simTwin(c runCase, liveRes *live.Result, bitIdentical bool, chk *checker) (virtualSec, images float64, err error) {
	cfg, err := c.config()
	if err != nil {
		return 0, 0, err
	}
	cfg.CaptureParams = bitIdentical
	res, err := core.Run(context.Background(), cfg)
	if err != nil {
		return 0, 0, fmt.Errorf("%s: simulator twin: %w", c.label, err)
	}
	if bitIdentical {
		if math.Float64bits(res.FinalTrainLoss) != math.Float64bits(liveRes.FinalTrainLoss) {
			chk.failf("%s: live final loss %v != simulator %v", c.label, liveRes.FinalTrainLoss, res.FinalTrainLoss)
		}
		if !sameParams(res.WorkerParams, liveRes.WorkerParams) {
			chk.failf("%s: live final parameters differ from the simulator's", c.label)
		}
	}
	return res.VirtualSec, float64(res.Metrics.TotalIters() * cfg.Workload.Batch), nil
}

func sameParams(a, b [][]float32) bool {
	if len(a) != len(b) {
		return false
	}
	for w := range a {
		if len(a[w]) != len(b[w]) {
			return false
		}
		for i := range a[w] {
			if math.Float32bits(a[w][i]) != math.Float32bits(b[w][i]) {
				return false
			}
		}
	}
	return true
}

// checkRep verifies one repetition's outputs: every rank completed its
// iterations and every real-math case ended with a finite loss under the
// workload's ceiling.
func checkRep(w workload, rep repResult, what string, chk *checker) {
	if rep.completed != rep.attempted {
		chk.failf("%s %s: completed %d of %d worker-iterations", w.name, what, rep.completed, rep.attempted)
	}
	if w.lossCeiling == 0 {
		return
	}
	for i, l := range rep.losses {
		if math.IsNaN(l) || math.IsInf(l, 0) || l <= 0 || l >= w.lossCeiling {
			chk.failf("%s %s: case %d final loss %v outside (0, %v)", w.name, what, i, l, w.lossCeiling)
		}
	}
}

// checkRepeat holds a deterministic workload's repetition to the first
// one's bits: same seed, same inputs, so the same loss, bytes and virtual
// time — anything else is a lost determinism contract.
func checkRepeat(w workload, first, rep repResult, what string, chk *checker) {
	if !w.deterministic {
		return
	}
	if rep.wireBytes != first.wireBytes {
		chk.failf("%s %s: wire bytes %d != first repetition's %d", w.name, what, rep.wireBytes, first.wireBytes)
	}
	if math.Float64bits(rep.virtualSec) != math.Float64bits(first.virtualSec) {
		chk.failf("%s %s: virtual seconds %v != first repetition's %v", w.name, what, rep.virtualSec, first.virtualSec)
	}
	for i := range rep.losses {
		if math.Float64bits(rep.losses[i]) != math.Float64bits(first.losses[i]) {
			chk.failf("%s %s: case %d final loss %v != first repetition's %v", w.name, what, i, rep.losses[i], first.losses[i])
		}
	}
}

// warmScale shrinks a workload for the untimed warm-up repetition: the same
// specs and code paths at a third of the iterations.
func warmScale(w workload) workload {
	out := mapSpecs(w, func(s *api.ExperimentSpec) { s.Iters = max(2, s.Iters/3) })
	if out.lossCeiling > 0 {
		out.lossCeiling = math.Inf(1) // too short for the recorded ceiling
	}
	return out
}

// outcome is everything a run of one workload produced.
type outcome struct {
	reps      []repResult
	attempted int
	failed    int
	// hostRefMs holds the reference-kernel times taken between the
	// repetitions (host.go), hostRefAt when the last one was taken.
	hostRefMs []float64
	hostRefAt time.Time
	// twinVirtualSec and twinImages are the simulator twin's modelled time
	// for a live workload (zero for simulator workloads, which carry their
	// own virtual time per repetition).
	twinVirtualSec, twinImages float64
	chk                        checker
}

// oneRep runs a single repetition of either kind. Like the testing package
// before a benchmark, it collects the previous repetition's garbage first,
// so every repetition starts from the same heap, and restarts the peak-RSS
// counter there.
func oneRep(w workload, tr *trace.Tracer, gaps *gapRecorder) (rep repResult, res *live.Result, err error) {
	runtime.GC()
	resetPeakRSS()
	if w.live {
		rep, res, err = liveRep(w.cases[0], tr, gaps)
	} else {
		rep, err = simRep(w.cases, tr)
	}
	rep.peakRSSMB = peakRSSMB()
	return rep, res, err
}

// warmUp runs the untimed repetition that fills caches and grows the heap,
// verifies it, and — for live workloads — runs the simulator twin.
func warmUp(w workload, out *outcome, log io.Writer) {
	ww := warmScale(w)
	rep, liveRes, err := oneRep(ww, nil, nil)
	if err != nil {
		out.chk.failf("warm-up: %v", err)
		return
	}
	checkRep(ww, rep, "warm-up", &out.chk)
	if w.live {
		out.twinVirtualSec, out.twinImages, err = simTwin(ww.cases[0], liveRes, w.deterministic, &out.chk)
		if err != nil {
			out.chk.failf("warm-up: %v", err)
		}
	}
	fmt.Fprintf(log, "warm-up: %d steps in %.3fs (untimed)  loss %.4g\n", rep.completed, rep.timedSec, rep.losses)
}

// add accounts for one repetition — its steps, its failures, its output
// checks — and keeps it as a timing sample. A repetition that errored fails
// all its steps and yields no sample; add then returns false.
func (o *outcome) add(w workload, rep repResult, err error, what string) bool {
	o.attempted += rep.attempted
	if err != nil {
		o.failed += rep.attempted
		o.chk.failf("%s: %v", what, err)
		return false
	}
	o.failed += rep.attempted - rep.completed
	checkRep(w, rep, what, &o.chk)
	if len(o.reps) > 0 {
		checkRepeat(w, o.reps[0], rep, what, &o.chk)
	}
	o.reps = append(o.reps, rep)
	return true
}

// repeatUntil calls round until another call as long as the longest so far
// would pass the deadline, and at least once, so that a run measures for the
// seconds it was given and not a repetition longer. round returns false to
// stop early.
func repeatUntil(deadline time.Time, round func(n int) bool) {
	var longest time.Duration
	for n := 0; n == 0 || time.Until(deadline) > longest; n++ {
		t0 := time.Now()
		if !round(n) {
			return
		}
		longest = max(longest, time.Since(t0))
	}
}

// refEvery is how often a run times the host's reference kernel (host.go).
const refEvery = time.Second

// noteHostRef times the reference kernel unless it did less than refEvery ago.
func (o *outcome) noteHostRef() {
	if time.Since(o.hostRefAt) < refEvery {
		return
	}
	o.hostRefMs = append(o.hostRefMs, hostRefMs())
	o.hostRefAt = time.Now()
}

// timedReps repeats the workload for seconds, timing the host's reference
// kernel in between. A repetition that errors ends the run: the workload is
// broken, not noisy.
func timedReps(w workload, seconds float64, out *outcome, log io.Writer) {
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	repeatUntil(deadline, func(n int) bool {
		out.noteHostRef()
		rep, _, err := oneRep(w, nil, nil)
		if !out.add(w, rep, err, fmt.Sprintf("rep %d", n)) {
			return false
		}
		fmt.Fprintf(log, "rep %d: %d steps  timed %.3fs  setup %.4gs  %.1f steps/s  cpu %.3f ms/step  rss %.0f MB  loss %.4g\n",
			n, rep.completed, rep.timedSec, rep.setupSec, rep.stepsPerSec(),
			1e3*rep.cpuSec/float64(max(1, rep.cpuSteps)), rep.peakRSSMB, rep.losses)
		return true
	})
}

// repValues holds what each repetition of a run measured, in order; the
// end-to-end metrics reduce them, and records keep them so that any other
// statistic can be taken later.
type repValues struct {
	StepsPerS []float64 `json:"steps_per_s"`
	CPUMs     []float64 `json:"cpu_ms_per_step"`
	SetupS    []float64 `json:"setup_s"`
	RSSMB     []float64 `json:"peak_rss_mb"`
	Slices    []slice   `json:"slices"`
}

func (o *outcome) repValues() repValues {
	var v repValues
	for _, r := range o.reps {
		v.StepsPerS = append(v.StepsPerS, r.stepsPerSec())
		v.SetupS = append(v.SetupS, r.setupSec)
		v.RSSMB = append(v.RSSMB, r.peakRSSMB)
		v.Slices = append(v.Slices, r.slices...)
		if r.cpuSteps > 0 {
			v.CPUMs = append(v.CPUMs, 1e3*r.cpuSec/float64(r.cpuSteps))
		}
	}
	return v
}

// fastestSlices adds up, over the kinds of slice the run's repetitions hold,
// the steps of one slice and the least wall and CPU seconds any slice of that
// kind took (each taken on its own).
func (o *outcome) fastestSlices() (steps int, wallSec, cpuSec float64) {
	var best []slice // by kind
	for _, r := range o.reps {
		for _, s := range r.slices {
			if s.Kind == len(best) {
				best = append(best, s)
				continue
			}
			b := &best[s.Kind]
			b.WallSec, b.CPUSec = min(b.WallSec, s.WallSec), min(b.CPUSec, s.CPUSec)
		}
	}
	for _, b := range best {
		steps += b.Steps
		wallSec += b.WallSec
		cpuSec += b.CPUSec
	}
	return steps, wallSec, cpuSec
}

// endToEnd reduces a run's repetitions to the six end-to-end metrics, all as
// measured. On a shared host interference only ever slows the program, in
// spells that take 40 % of the speed for tenths of a second to minutes, so a
// run's median moves with how much of it the spells hit. The timings are
// therefore the fastest the run saw of each piece of work: steps_per_s and
// cpu_ms_per_step from the fastest slice of every kind, setup_s from the
// fastest repetition (README.md, "Noise"). Memory is the median; bytes and
// virtual time repeat exactly.
func endToEnd(w workload, out *outcome) map[string]metric {
	v := out.repValues()
	var wire, virt []float64
	for _, r := range out.reps {
		wire = append(wire, float64(r.wireBytes)/float64(r.completed))
		if r.virtualSec > 0 {
			virt = append(virt, r.images/r.virtualSec)
		}
	}
	if w.live && out.twinVirtualSec > 0 {
		virt = []float64{out.twinImages / out.twinVirtualSec}
	}
	var stepsPerS, cpuMs float64
	if steps, wallSec, cpuSec := out.fastestSlices(); steps > 0 {
		stepsPerS, cpuMs = float64(steps)/wallSec, 1e3*cpuSec/float64(steps)
	}
	return map[string]metric{
		"setup_s":              {least(v.SetupS), "s"},
		"steps_per_s":          {stepsPerS, "1/s"},
		"cpu_ms_per_step":      {cpuMs, "ms"},
		"wire_bytes_per_step":  {median(wire), "bytes"},
		"virtual_images_per_s": {median(virt), "img/s"},
		"peak_rss_mb":          {median(v.RSSMB), "MB"},
	}
}
