package live

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strings"
	"testing"

	"disttrain/internal/core"
	"disttrain/internal/nn"
	"disttrain/internal/rng"
	"disttrain/internal/xport"
)

// heapAllocated is the bytes the heap has allocated since the process
// started (runtime/metrics' cumulative /gc/heap/allocs:bytes).
func heapAllocated() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// owner is one holder of model-sized vectors in a live run, and how many it
// may allocate.
type owner struct {
	name    string
	vectors float64
}

// TestLiveRunFootprint accounts for the model-sized vectors a 4-rank live
// run allocates, owner by owner, on a 1 M-parameter MLP over loopback TCP:
//
//   - the run: its one initial draw (core.InitModel), the vector NewModel
//     moves into a flat store; that store is not counted here, because the
//     last replica or PS built adopts it as its parameters;
//   - a worker replica: its parameters, a copy of the draw or the draw's
//     own store, which its model binds, and the flat gradient store — two
//     vectors;
//   - a velocity only where the loop steps locally: every AR-SGD rank, no
//     ASP rank (the PS steps for it);
//   - an int8 worker: its whole-vector payload (a quarter vector), whose
//     code region is the replica's int8 codes, written there once;
//   - the PS: its parameters (built at START, after every rank, it adopts
//     the draw itself) and its velocity — no model and no gradient store;
//   - the coordinator: nothing — the evaluation model holds no store of its
//     own and reads the PS's parameters or the replica average where they
//     lie, and the average is written into a lent vector;
//   - per step: nothing — a parameter reply lands in the worker's parameter
//     store, where the worker posted it, and other frame sections are lent
//     by xport's lender;
//   - at DONE: nothing — a finished worker retires its gradient store and
//     velocity to the lender, and the coordinator decodes the reports'
//     parameter vectors into them.
//
// The run measured is a warm process's next one: two warm-up runs fill the
// lender, and the collector stays off so that it keeps what it holds (it
// drops everything after a collection cycle). The warm-ups' reports'
// vectors go back to the lender, as a caller done with a result may hand
// them, or stay with the caller, as one that keeps its previous Result does:
// then the retired vectors alone must carry the DONE reports and the
// average. The lender may still allocate a section or two beyond the
// warm-ups' peak in flight — an int8 payload at the PS, a quarter vector in
// a 4-rank ring, whose chunks come in two lengths the lender keeps apart —
// and three payloads or two and a half chunks are allowed. The sum is the
// budget, with half a vector of slack for everything smaller than a vector:
// sockets, goroutines, activations.
func TestLiveRunFootprint(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector an asynchronous run keeps more frames in flight than the lender's allowance")
	}
	const workers, iters = 4, 8
	aspInt8 := []owner{
		{"the run's initial draw", 1},
		{"worker parameters and gradients", 2 * workers},
		{"worker int8 payloads, the replicas' codes", 0.25 * workers},
		{"PS parameters and velocity", 2},
		{"evaluation model", 0},
		{"DONE reports' parameters", 0},
		{"lender: three int8 payloads beyond the warm-ups' peak", 0.75},
	}
	arsgd := []owner{
		{"the run's initial draw", 1},
		{"worker parameters and gradients", 2 * workers},
		{"worker velocities", workers},
		{"evaluation model", 0},
		{"replica average", 0},
		{"DONE reports' parameters", 0},
		{"lender: two and a half ring chunks beyond the warm-ups' peak", 2.5 / workers},
	}
	for _, tc := range []struct {
		name   string
		algo   core.Algo
		int8   bool
		keep   bool // the caller keeps the warm-ups' Results
		owners []owner
	}{
		{"asp-int8", core.ASP, true, false, aspInt8},
		{"arsgd", core.ARSGD, false, false, arsgd},
		{"asp-int8 previous result kept", core.ASP, true, true, aspInt8},
		{"arsgd previous result kept", core.ARSGD, false, true, arsgd},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := liveConfig(tc.algo, workers, iters, 5)
			cfg.Quantize8 = tc.int8
			cfg.Real.Factory = func(r *rng.RNG) *nn.Model { return nn.NewMLP(r, 2, 1024, 1024, 3) }
			cfg.Real.Batch = 4
			cfg.Real.EvalMax = 8
			vec := float64(4 * cfg.Real.Factory(nil).NumParams())

			runtime.GC()
			defer debug.SetGCPercent(debug.SetGCPercent(-1))
			var kept []*Result
			for range 2 {
				warm, err := RunLoopback(cfg)
				if err != nil {
					t.Fatal(err)
				}
				if tc.keep {
					kept = append(kept, warm)
					continue
				}
				for _, p := range warm.WorkerParams {
					(&xport.Frame{Vec: p}).Release()
				}
			}
			before := heapAllocated()
			if _, err := RunLoopback(cfg); err != nil {
				t.Fatal(err)
			}
			got := float64(heapAllocated()-before) / vec
			runtime.KeepAlive(kept)

			var budget float64
			var table strings.Builder
			for _, o := range tc.owners {
				budget += o.vectors
				fmt.Fprintf(&table, "\n  %5.2f  %s", o.vectors, o.name)
			}
			const slack = 0.5
			budget += slack
			t.Logf("allocated %.2f vectors of %.0f bytes; budget %.2f:%s\n  %5.2f  slack", got, vec, budget, table.String(), slack)
			if got > budget {
				t.Fatalf("the run allocated %.2f model-sized vectors, budget %.2f", got, budget)
			}
		})
	}
}
