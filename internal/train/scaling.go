package train

import (
	"fmt"

	"disttrain/internal/cluster"
	"disttrain/internal/comm"
	"disttrain/internal/core"
	"disttrain/internal/costmodel"
	"disttrain/internal/des"
	"disttrain/internal/report"
	"disttrain/internal/simnet"
)

// The scaling study (experiment ID "scale") sweeps the AllReduce collectives
// far past the paper's 24-worker testbed — 8 to 1024 simulated workers on
// both paper fabrics — and answers three questions the flat ring cannot:
//
//  1. Where does each collective's breaking point sit (the largest scale at
//     which compute still covers ≥ 50 % of the iteration)?
//  2. When does the hierarchical collective beat the flat ring? (In the
//     latency-bound regime — small or compressed gradients — at every
//     multi-machine scale; with full-size gradients the ring's near-optimal
//     bandwidth keeps it ahead in the middle of the sweep.)
//  3. Do the costmodel's first-order predictions track the simulator? (Ring
//     and hierarchical must land within ±25 %; the rest are envelopes.)

// scaleCollectives are swept in this order.
var scaleCollectives = []string{"ring", "tree", "hierarchical", "butterfly", "torus"}

// scalePredTolerance is the measured-vs-predicted gate for the calibrated
// formulas (ring, hierarchical).
const scalePredTolerance = 0.25

// scaleKind is the simnet message kind used by the microbenchmarks.
const scaleKind = 7

// compressedBytes is the headline small-gradient payload: a ResNet-50
// gradient under ~200× DGC-class compression (94 MB → 470 KB).
const compressedBytes = 470 << 10

// measureCollective runs one cost-only AllReduce of the named collective
// over n workers packed on c and returns the virtual completion time.
func measureCollective(name string, c cluster.Config, n int, bytes int64) (float64, error) {
	eng := des.NewEngine()
	net := simnet.New(eng, c)
	ids := make([]int, n)
	for w := 0; w < n; w++ {
		ids[w] = net.AddNode(c.MachineOfWorker(w)).ID
	}
	plan, err := comm.Resolve(name, c, n)
	if err != nil {
		return 0, err
	}
	errs := make([]error, n)
	for w := 0; w < n; w++ {
		w := w
		eng.Spawn(fmt.Sprintf("rank%d", w), func(p *des.Proc) {
			_, _, err := comm.Collective(p, comm.CollectiveOpts{
				Op: plan.Op, Net: net, Nodes: ids, Self: w,
				VirtualLen: int(bytes / 4), Bytes: bytes, Kind: scaleKind,
				Groups: plan.Groups, TorusRows: plan.TorusRows, TorusCols: plan.TorusCols,
			})
			errs[w] = err
		})
	}
	eng.Run(0)
	for w, err := range errs {
		if err != nil {
			return 0, fmt.Errorf("scale: %s rank %d: %w", name, w, err)
		}
	}
	if stuck := eng.Stuck(); len(stuck) > 0 {
		return 0, fmt.Errorf("scale: %s at n=%d: %d stuck procs", name, n, len(stuck))
	}
	return float64(eng.Now()), nil
}

// scaleRegime is one (fabric, payload) slice of the sweep.
type scaleRegime struct {
	label   string
	gbps    float64
	bytes   int64
	compute float64 // per-iteration compute the payload's workload implies
}

func scaleRegimes(o Options) []scaleRegime {
	resnet := costmodel.NewWorkload(costmodel.ResNet50(), costmodel.TitanV(), 128)
	vgg := costmodel.NewWorkload(costmodel.VGG16(), costmodel.TitanV(), 96)
	regimes := []scaleRegime{
		{"resnet50 DGC-class (470KB) @ 10G", 10, compressedBytes, resnet.MeanIterSec()},
		{"resnet50 full gradient (94MB) @ 10G", 10, resnet.Profile.TotalBytes(), resnet.MeanIterSec()},
		{"vgg16 full gradient (552MB) @ 10G", 10, vgg.Profile.TotalBytes(), vgg.MeanIterSec()},
		{"vgg16 full gradient (552MB) @ 56G", 56, vgg.Profile.TotalBytes(), vgg.MeanIterSec()},
	}
	if o.Quick {
		regimes = regimes[:2]
	}
	return regimes
}

func scaleWorkers(o Options) []int {
	if o.Quick {
		return []int{8, 16}
	}
	return []int{8, 24, 64, 256, 1024}
}

func scaleCluster(gbps float64, n int) cluster.Config {
	if gbps >= 56 {
		return cluster.Paper56G(n)
	}
	return cluster.Paper10G(n)
}

// runScale produces the scaling-frontier study.
func runScale(o Options) ([]string, error) {
	grid := scaleWorkers(o)
	var out []string

	type key struct {
		regime, coll string
		n            int
	}
	measured := map[key]float64{}

	for _, reg := range scaleRegimes(o) {
		t := report.Table{
			Title: fmt.Sprintf("Scaling frontier — AllReduce time per iteration, %s (ms)", reg.label),
			Header: append([]string{"collective"}, func() []string {
				var h []string
				for _, n := range grid {
					h = append(h, fmt.Sprintf("n=%d", n))
				}
				return append(h, "break-even n")
			}()...),
		}
		for _, coll := range scaleCollectives {
			row := []string{coll}
			breakEven := "<" + fmt.Sprint(grid[0])
			for _, n := range grid {
				c := scaleCluster(reg.gbps, n)
				sec, err := measureCollective(coll, c, n, reg.bytes)
				if err != nil {
					return nil, err
				}
				measured[key{reg.label, coll, n}] = sec
				o.logf("scale: %s %s n=%d: %.3fms", reg.label, coll, n, sec*1e3)
				row = append(row, report.Fmt(sec*1e3, 2))
				if reg.compute/(reg.compute+sec) >= 0.5 {
					breakEven = ">=" + fmt.Sprint(n)
				}
			}
			// breakEven holds the largest swept n at which compute still
			// covers half the iteration; collectives that scale past the
			// sweep report the last grid point.
			t.AddRow(append(row, breakEven)...)
		}
		out = append(out, t.String())
	}

	// Measured vs predicted for the calibrated formulas.
	pt := report.Table{
		Title: fmt.Sprintf("Costmodel cross-check — measured/predicted ratio (tolerance ±%.0f%% for ring and hierarchical)",
			100*scalePredTolerance),
		Header: []string{"regime", "collective", "n", "measured ms", "predicted ms", "ratio"},
	}
	for _, reg := range scaleRegimes(o) {
		for _, coll := range []string{"ring", "hierarchical"} {
			for _, n := range grid {
				c := scaleCluster(reg.gbps, n)
				sec := measured[key{reg.label, coll, n}]
				pred, err := costmodel.PredictAllReduceSec(coll, c, n, reg.bytes)
				if err != nil {
					return nil, err
				}
				ratio := sec / pred
				if ratio < 1-scalePredTolerance || ratio > 1+scalePredTolerance {
					return nil, fmt.Errorf("scale: %s %s n=%d: measured %.4gs vs predicted %.4gs (ratio %.2f outside ±%.0f%%)",
						reg.label, coll, n, sec, pred, ratio, 100*scalePredTolerance)
				}
				pt.AddRow(reg.label, coll, fmt.Sprint(n), report.Fmt(sec*1e3, 2),
					report.Fmt(pred*1e3, 2), report.Fmt(ratio, 2))
			}
		}
	}
	out = append(out, pt.String())

	// The headline claim, enforced: in the latency-bound (compressed) regime
	// on 10G, hierarchical beats the flat ring at every multi-machine scale.
	headline := scaleRegimes(o)[0]
	for _, n := range grid {
		if n <= 4 {
			continue // single machine: no hierarchy to exploit
		}
		ring := measured[key{headline.label, "ring", n}]
		hier := measured[key{headline.label, "hierarchical", n}]
		if hier >= ring {
			return nil, fmt.Errorf("scale: hierarchical (%.4gs) did not beat ring (%.4gs) at n=%d in the latency-bound regime",
				hier, ring, n)
		}
	}

	// End-to-end spot check: the same ordering must show up in full AR-SGD
	// runs through core, not just the collective microbenchmark.
	spotN := 24
	iters := 4
	if o.Quick {
		spotN, iters = 8, 2
	}
	st := report.Table{
		Title:  fmt.Sprintf("End-to-end AR-SGD spot check — %d workers @ 10G, resnet50, virtual s/iter", spotN),
		Header: []string{"collective", "s/iter", "cross-machine MB/iter"},
	}
	for _, coll := range scaleCollectives {
		cfg := perfConfig(core.ARSGD, "resnet50", spotN, 10, iters, o.seed())
		cfg.Collective = coll
		o.logf("scale: e2e %s", coll)
		res, err := o.run(cfg)
		if err != nil {
			return nil, fmt.Errorf("scale e2e %s: %w", coll, err)
		}
		st.AddRow(coll, report.Fmt(res.VirtualSec/float64(iters), 3),
			report.Fmt(float64(res.Net.CrossMachineBytes)/float64(iters)/1e6, 1))
	}
	out = append(out, st.String())
	return out, nil
}
