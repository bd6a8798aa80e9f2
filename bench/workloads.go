package main

import (
	"fmt"
	"math"

	"disttrain/internal/api"
	"disttrain/internal/core"
	"disttrain/internal/nn"
	"disttrain/internal/rng"
)

// runCase is one experiment spec inside a workload. A live workload has
// exactly one; a simulator mix runs its cases back to back per repetition.
type runCase struct {
	label string
	spec  api.ExperimentSpec
	// wideMLP swaps the spec's model for the benchmark-built wide MLP (the
	// spec schema only names the repo's small models).
	wideMLP bool
	// sliceIters is how many iterations of every rank one timing slice of a
	// live case holds (run.go, slice); a simulator case is one slice.
	sliceIters int
}

// workload is one named set of inputs. Names are stable: later issues cite
// them, and BENCHMARK.json lists the same five.
type workload struct {
	name string
	// live workloads run 4 ranks over loopback TCP; the others run the
	// discrete-event simulator.
	live bool
	// deterministic workloads must repeat final loss, wire bytes and
	// virtual seconds bit for bit across repetitions of one seed. A live
	// deterministic workload must also end with the simulator's final
	// parameters and loss for the same spec (the repo's sim↔live contract),
	// checked once in warm-up.
	deterministic bool
	// lossCeiling bounds the final training loss (an EWMA over the run) of
	// every case: a recorded value with head-room, not a quality target. It
	// holds for the frozen iteration counts only — shorter runs (warm-up,
	// the smoke test) still carry their first batches' loss and are only
	// checked for a finite value. 0 = cost-only workload, no loss.
	lossCeiling float64
	cases       []runCase
}

// Wide MLP geometry: 256 → 4096 → 512 → classes, ≈3.15 M parameters, so one
// gradient is 12.6 MB while the GEMMs at batch 8 cost a few milliseconds —
// the communication-bound regime the small conv models cannot reach.
const (
	wideIn      = 256
	wideHidden1 = 4096
	wideHidden2 = 512
)

func wideMLP(classes int) nn.ModelFactory {
	return func(r *rng.RNG) *nn.Model {
		return nn.NewModel("widemlp",
			nn.NewFlatten("flat"),
			nn.NewDenseReLU("fc0", wideIn, wideHidden1, r),
			nn.NewDenseReLU("fc1", wideHidden1, wideHidden2, r),
			nn.NewDense("fc2", wideHidden2, classes, r),
		)
	}
}

// config derives the case's core.Config through the repo's one spec→config
// path, then applies the wide-MLP override.
func (c runCase) config() (core.Config, error) {
	spec := c.spec
	cfg, err := spec.Config()
	if err != nil {
		return core.Config{}, fmt.Errorf("%s: %w", c.label, err)
	}
	if c.wideMLP {
		cfg.Real.Factory = wideMLP(cfg.Real.Train.Classes)
	}
	return cfg, nil
}

// mapSpecs returns a copy of w with edit applied to every case's spec.
func mapSpecs(w workload, edit func(*api.ExperimentSpec)) workload {
	out := w
	out.cases = make([]runCase, len(w.cases))
	for i, c := range w.cases {
		edit(&c.spec)
		out.cases[i] = c
	}
	return out
}

// steps is the worker-iterations one successful run of the case completes.
func (c runCase) steps() int { return c.spec.Workers * c.spec.Iters }

// Frozen iteration counts. They were sized on the recording host (2 cores,
// Xeon 2.1 GHz, AVX2) so that a timing slice — sliceIters iterations of every
// live rank, one case of a simulator mix — lasts 0.1 to 0.5 s: short enough
// that some slice of a run falls between the host's slow spells (README.md,
// "Noise"), long enough that a slice is thousands of events or dozens of
// steps. A live repetition is one cold first iteration and then whole slices,
// so its set-up (0.1 to 0.5 s) is a small part of it. The run repeats until
// --seconds have passed. Changing them changes every number: do it only in a
// benchmark-only PR.
const (
	itersCompute = 81 // tcp-arsgd-compute, per rank: 1 + 4 slices of 20
	itersComm    = 17 // tcp-arsgd-comm, per rank: 1 + 4 slices of 4
	itersASP     = 13 // tcp-asp-int8, per rank: 1 + 2 slices of 6
	itersRealMix = 10 // sim-real-mix, per worker and case
	itersCostMix = 5  // sim-cost-mix, per worker and case
)

// real returns the real-math block every non-cost case shares: evaluation
// only at the end (no run is this long), on a small slice, so the timed
// region is training.
func real(net string, batch int) *api.RealSpec {
	return &api.RealSpec{Dataset: "shapes16", Net: net, Batch: batch, EvalEvery: 1 << 20, EvalMax: 100}
}

// buildWorkloads returns the five workloads for a seed. scale multiplies
// the frozen iteration counts: the command always passes 1, the smoke test a
// small value so the whole set runs in a few seconds under go test.
func buildWorkloads(seed uint64, scale float64) []workload {
	it := func(n int) int { return max(2, int(float64(n)*scale+0.5)) }
	live := func(algo string, iters int, lr float64, r *api.RealSpec) api.ExperimentSpec {
		return api.ExperimentSpec{Algo: algo, Workers: 4, Iters: it(iters), Seed: seed, LR: lr,
			Transport: api.TransportTCP, Real: r}
	}
	simReal := func(algo string) api.ExperimentSpec {
		return api.ExperimentSpec{Algo: algo, Workers: 8, Iters: it(itersRealMix), Seed: seed, LR: 0.02,
			Model: "vgg16", Gbps: 10, Real: real("minivgg", 16)}
	}
	simCost := func(algo string, workers int, model string, gbps float64) api.ExperimentSpec {
		return api.ExperimentSpec{Algo: algo, Workers: workers, Iters: it(itersCostMix), Seed: seed,
			Model: model, Gbps: gbps}
	}

	sspOpt := simReal("ssp")
	sspOpt.Sharding, sspOpt.WaitFreeBP, sspOpt.DGC = "layerwise", true, true

	hier := simCost("arsgd", 256, "resnet50", 10)
	hier.Collective = "hierarchical"
	sspBal := simCost("ssp", 128, "vgg16", 56)
	sspBal.Sharding = "balanced"
	aspOpt := simCost("asp", 64, "vgg16", 10)
	aspOpt.Sharding, aspOpt.WaitFreeBP, aspOpt.DGC = "layerwise", true, true

	aspInt8 := live("asp", itersASP, 0.002, real("mlp", 8))
	aspInt8.Quantize8 = true

	ws := []workload{
		{
			name: "tcp-arsgd-compute", live: true, deterministic: true, lossCeiling: 4,
			cases: []runCase{{label: "arsgd-ring/miniresnet", sliceIters: 20,
				spec: live("arsgd", itersCompute, 0.02, real("miniresnet", 16))}},
		},
		{
			name: "tcp-arsgd-comm", live: true, deterministic: true, lossCeiling: 4,
			cases: []runCase{{label: "arsgd-ring/widemlp", wideMLP: true, sliceIters: 4,
				spec: live("arsgd", itersComm, 0.01, real("mlp", 8))}},
		},
		{
			name: "tcp-asp-int8", live: true, lossCeiling: 5,
			cases: []runCase{{label: "asp-int8/widemlp", wideMLP: true, sliceIters: 6, spec: aspInt8}},
		},
		{
			name: "sim-real-mix", deterministic: true, lossCeiling: 4,
			cases: []runCase{
				{label: "bsp/minivgg", spec: simReal("bsp")},
				{label: "ssp+layerwise+wfbp+dgc/minivgg", spec: sspOpt},
				{label: "adpsgd/minivgg", spec: simReal("adpsgd")},
			},
		},
		{
			name: "sim-cost-mix", deterministic: true,
			cases: []runCase{
				{label: "arsgd-ring/128w/vgg16/10G", spec: simCost("arsgd", 128, "vgg16", 10)},
				{label: "arsgd-hier/256w/resnet50/10G", spec: hier},
				{label: "ssp-balanced/128w/vgg16/56G", spec: sspBal},
				{label: "asp+layerwise+wfbp+dgc/64w/vgg16/10G", spec: aspOpt},
				{label: "adpsgd/256w/resnet50/10G", spec: simCost("adpsgd", 256, "resnet50", 10)},
			},
		},
	}
	if scale < 1 {
		for i := range ws {
			if ws[i].lossCeiling > 0 {
				ws[i].lossCeiling = math.Inf(1)
			}
		}
	}
	return ws
}

// findWorkload returns the named workload or an error listing the names.
func findWorkload(ws []workload, name string) (workload, error) {
	var names []string
	for _, w := range ws {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}
