package live

import (
	"math"
	"sync"
	"testing"

	"disttrain/internal/core"
	"disttrain/internal/fault"
	"disttrain/internal/nn"
	"disttrain/internal/rng"
	"disttrain/internal/tensor"
	"disttrain/internal/xport"
)

// firstPass is a parameter-free layer in front of a model that records,
// at the model's first training pass, the parameter store it computes
// with: where it lies and what it holds.
type firstPass struct {
	m     *nn.Model
	store *float32
	start []float32
}

func (p *firstPass) Name() string { return "first-pass" }

func (p *firstPass) Forward(x *tensor.Tensor, train bool) *tensor.Tensor {
	if train && p.store == nil {
		w := p.m.Weights()
		p.store, p.start = &w[0], append([]float32(nil), w...)
	}
	return x
}

func (p *firstPass) Backward(dout *tensor.Tensor) *tensor.Tensor { return dout }

func (p *firstPass) Params() []*nn.Param { return nil }

// drawCounter is a run's model factory that counts the factory calls with
// a stream — the initial draws — and puts a firstPass in front of every
// model it builds.
type drawCounter struct {
	mu     sync.Mutex
	draws  int
	drawn  []*nn.Model
	passes []*firstPass
}

func (c *drawCounter) factory(r *rng.RNG) *nn.Model {
	p := &firstPass{}
	p.m = nn.NewModel("mlp", p, nn.NewDenseReLU("fc0", 2, 16, r), nn.NewDense("fc1", 16, 3, r))
	c.mu.Lock()
	defer c.mu.Unlock()
	if r != nil {
		c.draws++
		c.drawn = append(c.drawn, p.m)
	}
	c.passes = append(c.passes, p)
	return p.m
}

// TestLiveOneInitialDraw: a live run draws its initial model once — one
// factory call with a stream, whatever its ranks, its PS and its restarts
// build — and every replica, a restarted rank's included, starts training
// from InitModel's parameters bit for bit, in a store of its own. The last
// taker adopts the draw itself: in a PS run the PS, built at START after
// every rank; in AR-SGD one rank. Under a crash schedule every taker copies
// and the draw stays as drawn.
func TestLiveOneInitialDraw(t *testing.T) {
	crash := &fault.Schedule{Events: []fault.Event{{Kind: fault.Crash, AtIter: 3, Worker: 1, Restart: 0.1}}}
	for _, tc := range []struct {
		name     string
		algo     core.Algo
		run      func(core.Config, ...Option) (*Result, error)
		faults   *fault.Schedule
		replicas int // models that train: one per rank and incarnation
		adopts   int // replicas that start in the draw's own store
	}{
		{"loopback-arsgd", core.ARSGD, RunLoopback, nil, 4, 1},
		{"loopback-asp", core.ASP, RunLoopback, nil, 4, 0},
		{"chan-bsp", core.BSP, RunChan, nil, 4, 0},
		{"loopback-bsp-elastic-restart", core.BSP, RunLoopback, crash, 5, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := liveConfig(tc.algo, 4, 6, 9)
			want := core.InitModel(&cfg).Weights()
			c := &drawCounter{}
			cfg.Real.Factory = c.factory
			if tc.faults != nil {
				cfg.Elastic, cfg.Faults = true, tc.faults
			}
			res, err := tc.run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if tc.faults != nil && (res.Deaths != 1 || res.Rejoins != 1) {
				t.Fatalf("%d deaths, %d rejoins; want the one crash and its restart", res.Deaths, res.Rejoins)
			}
			if c.draws != 1 {
				t.Fatalf("the run drew an initial model %d times, want once", c.draws)
			}
			draw := c.drawn[0].Weights()
			if tc.faults != nil && !bitEqual(draw, want) {
				t.Fatal("under a crash schedule the run's initial draw was written to")
			}
			stores := map[*float32]bool{}
			trained, adopts := 0, 0
			for _, p := range c.passes {
				if p.store == nil {
					continue // the draw, or an evaluation model
				}
				trained++
				if !bitEqual(p.start, want) {
					t.Fatal("a replica does not start from InitModel's parameters")
				}
				if stores[p.store] {
					t.Fatal("two replicas start in one store")
				}
				stores[p.store] = true
				if p.store == &draw[0] {
					adopts++
				}
			}
			if trained != tc.replicas || adopts != tc.adopts {
				t.Fatalf("%d models trained, %d in the draw's store; want %d and %d", trained, adopts, tc.replicas, tc.adopts)
			}
		})
	}

	// The takers before the last get copies; the last, the PS here, adopts
	// the draw. Under a crash schedule every taker, the PS included, copies.
	for _, tc := range []struct {
		name   string
		faults *fault.Schedule
		adopt  bool
	}{{"server", nil, true}, {"server-crash-schedule", crash, false}} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := liveConfig(core.ASP, 2, 6, 9)
			cfg.Faults = tc.faults
			want := core.InitModel(&cfg).Weights()
			o := buildOptions(&cfg, nil, 3)
			draw := o.init.weights()
			seen := map[*float32]bool{&draw[0]: true}
			for i := range 2 {
				v := o.init.take()
				if seen[&v[0]] || !bitEqual(v, want) {
					t.Fatalf("taker %d was handed a store another holds, or other parameters than InitModel's", i)
				}
				seen[&v[0]] = true
			}
			sv := newServer(&cfg, xport.NewChanNet(meshSize(&cfg)).Endpoint(cfg.Workers), o)
			if !bitEqual(sv.global.Params, want) {
				t.Fatal("the PS does not start from InitModel's parameters")
			}
			if adopted := &sv.global.Params[0] == &draw[0]; adopted != tc.adopt {
				t.Fatalf("the PS, the last taker, adopted the draw: %v, want %v", adopted, tc.adopt)
			}
		})
	}
}

// bitEqual reports whether a and b hold the same float32 bits.
func bitEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}
