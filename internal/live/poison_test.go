package live

import (
	"math"
	"sync"
	"testing"

	"disttrain/internal/core"
	"disttrain/internal/nn"
	"disttrain/internal/rng"
	"disttrain/internal/tensor"
)

// TestLiveUseAfterRelease runs live runs with every vector a lender
// takes back filled with NaNs — a received frame's Vec and Data sections, a
// dequantized gradient, a retired gradient store and velocity, the layers'
// scratch — so that a reader who kept one past its release reads garbage
// that shows. The model is large enough that every ring chunk, parameter
// reply, push and int8 payload is lent. AR-SGD's ring (a chunk is folded,
// then released) and one-worker ASP with int8 gradients (the server
// dequantizes the payload, releases it, and releases the dense gradient
// once the shard applied it) are deterministic live, so each poisoned run
// must equal its unpoisoned run bit for bit: every rank's final parameters
// and every rank's loss at every iteration. GoSGD's pushes land in whatever
// iteration they reach, which differs run to run, so its poisoned run must
// only keep every parameter and every loss finite: a merged push read after
// its release would carry the NaNs into both. BSP (W = 4, over sockets and
// over pipes) and the one-worker PS rows receive every parameter reply
// into the replica's store, which no release may take: a store lent and
// poisoned would show in the next iteration's loss.
func TestLiveUseAfterRelease(t *testing.T) {
	for _, tc := range []struct {
		name    string
		algo    core.Algo
		workers int
		int8    bool
		exact   bool // deterministic: the poisoned run equals the plain one
		run     func(core.Config, ...Option) (*Result, error)
	}{
		{"arsgd", core.ARSGD, 4, false, true, RunLoopback},
		{"asp-int8", core.ASP, 1, true, true, RunLoopback},
		{"gosgd", core.GoSGD, 4, false, false, RunLoopback},
		{"bsp", core.BSP, 4, false, true, RunLoopback},
		{"bsp-chan", core.BSP, 4, false, true, RunChan},
		{"easgd-chan", core.EASGD, 1, false, true, RunChan},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := liveConfig(tc.algo, tc.workers, 8, 5)
			cfg.Quantize8 = tc.int8
			cfg.Real.Factory = func(r *rng.RNG) *nn.Model { return nn.NewMLP(r, 2, 256, 256, 3) }
			run := func(poison bool) (*Result, map[[2]int]float64) {
				var mu sync.Mutex
				losses := map[[2]int]float64{}
				progress := WithProgress(func(rank, iter int, loss float64) {
					mu.Lock()
					losses[[2]int{rank, iter}] = loss
					mu.Unlock()
				})
				defer tensor.PoisonReleased.Store(tensor.PoisonReleased.Swap(poison))
				res, err := tc.run(cfg, progress)
				if err != nil {
					t.Fatal(err)
				}
				return res, losses
			}
			got, gotLoss := run(true)
			if len(gotLoss) != tc.workers*cfg.Iters {
				t.Fatalf("%d losses reported, want %d", len(gotLoss), tc.workers*cfg.Iters)
			}
			if !tc.exact {
				for w, p := range got.WorkerParams {
					for i, v := range p {
						if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
							t.Fatalf("worker %d parameter %d is %v", w, i, v)
						}
					}
				}
				for k, l := range gotLoss {
					if math.IsNaN(l) || math.IsInf(l, 0) {
						t.Fatalf("rank %d iteration %d: loss %v", k[0], k[1], l)
					}
				}
				return
			}
			want, wantLoss := run(false)
			for w, p := range want.WorkerParams {
				for i, v := range p {
					if math.Float32bits(got.WorkerParams[w][i]) != math.Float32bits(v) {
						t.Fatalf("worker %d parameter %d: %v, without the filling %v", w, i, got.WorkerParams[w][i], v)
					}
				}
			}
			for k, l := range wantLoss {
				if math.Float64bits(gotLoss[k]) != math.Float64bits(l) {
					t.Fatalf("rank %d iteration %d: loss %v, without the filling %v", k[0], k[1], gotLoss[k], l)
				}
			}
		})
	}
}
