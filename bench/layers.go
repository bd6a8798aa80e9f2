package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"disttrain/internal/cluster"
	"disttrain/internal/comm"
	"disttrain/internal/costmodel"
	"disttrain/internal/data"
	"disttrain/internal/des"
	"disttrain/internal/grad"
	"disttrain/internal/nn"
	"disttrain/internal/opt"
	"disttrain/internal/ps"
	"disttrain/internal/rng"
	"disttrain/internal/sched"
	"disttrain/internal/simnet"
	"disttrain/internal/tensor"
	"disttrain/internal/topo"
	"disttrain/internal/trace"
	"disttrain/internal/xport"
)

// The layer probes time calls into the public functions of each internal
// package, from outside, at the sizes the workloads use. They are the lower
// rungs of the ladder: a change to one layer should move its probe and,
// through it, the end-to-end metric README.md predicts — and nothing else.

// benchPid is the Chrome-trace process id of the benchmark's own spans
// (the live runtime uses 0 and 1, the simulator one pid per machine).
const benchPid = 9000

// prober runs the probes and collects their metrics.
type prober struct {
	// slice is the wall time each probe may spend measuring.
	slice time.Duration
	tr    *trace.Tracer
	r     *rng.RNG
	out   map[string]metric
	tid   int
}

// measure calls fn once untimed, then repeatedly for about p.slice (at
// least three times), and returns the fastest call's seconds: a call lasts
// milliseconds, so some call in the slice nearly always sees a quiet host.
// The probe's span in the Chrome trace covers all of it.
func (p *prober) measure(name string, fn func()) float64 {
	p.tid++
	sp := p.tr.StartSpan(name, "probe", benchPid, p.tid)
	defer sp.End()
	fn()
	best := math.Inf(1)
	deadline := time.Now().Add(p.slice)
	for n := 0; n < 3 || time.Now().Before(deadline); n++ {
		t0 := time.Now()
		fn()
		best = min(best, time.Since(t0).Seconds())
	}
	return best
}

func (p *prober) set(name string, v float64) {
	p.out[name] = metric{Value: v, Unit: perLayerUnits[name]}
}

// gbps records bytes moved per call as GB/s.
func (p *prober) gbps(name string, bytes int, fn func()) {
	p.set(name, float64(bytes)/p.measure(name, fn)/1e9)
}

func (p *prober) randVec(n int, std float64) []float32 {
	v := make([]float32, n)
	for i := range v {
		v[i] = float32(p.r.NormFloat64() * std)
	}
	return v
}

func (p *prober) randTensor(shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	t.RandNormal(p.r, 0.1)
	return t
}

// stepper is the plain single-worker training loop — Gather → Loss → SGD —
// the 1-worker baseline every distributed step is compared with.
type stepper struct {
	model   *nn.Model
	train   *data.Dataset
	sampler *data.Sampler
	sgd     *opt.SGD
	x       *tensor.Tensor
	y       []int
	grads   []float32
	flat    []float32
}

func newStepper(factory nn.ModelFactory, train *data.Dataset, batch int, r *rng.RNG) *stepper {
	s := &stepper{model: factory(r.Split(1)), train: train}
	s.model.SetArena(tensor.NewArena())
	s.sampler = data.NewSampler(data.ShardIndices(train.N(), 1, 0), batch, r.Split(2))
	n := s.model.NumParams()
	s.sgd = opt.NewSGD(n, 0.9, 1e-4)
	s.grads, s.flat = make([]float32, n), make([]float32, n)
	return s
}

func (s *stepper) batch() { s.x, s.y = s.train.Gather(s.sampler.Next(), s.x, s.y) }

func (s *stepper) fwdbwd() {
	s.model.ZeroGrads()
	s.model.Loss(s.x, s.y)
}

func (s *stepper) step() {
	s.batch()
	s.fwdbwd()
	g := s.model.FlatGrads(s.grads)
	flat := s.model.FlatParams(s.flat)
	s.sgd.Step(flat, g, 0.01)
	s.model.SetFlatParams(flat)
}

// runProbes measures every workload-independent rung and stores the
// metrics in out. budget is the total wall time the probes may take.
func runProbes(seed uint64, budget time.Duration, tr *trace.Tracer, out map[string]metric) error {
	// 33 measure calls share the budget; dividing by 44 leaves a quarter of
	// it for their untimed first calls and the probes' own set-up.
	const nProbes = 44
	p := &prober{slice: budget / nProbes, tr: tr, r: rng.New(seed ^ 0xbe9c4), out: out}
	ds := data.GenShapes16(p.r.Split(1), 1200)
	train, _ := ds.Split(p.r.Split(2), 200)

	p.tensorProbes()
	resnet := newStepper(func(r *rng.RNG) *nn.Model { return nn.NewMiniResNet(r, ds.Classes) }, train, 16, p.r.Split(3))
	wide := newStepper(wideMLP(ds.Classes), train, 8, p.r.Split(4))
	p.nnProbes("miniresnet", resnet)
	p.nnProbes("widemlp", wide)
	p.allocProbe(resnet)
	nWide := wide.model.NumParams()
	p.optDataProbes(nWide, resnet)
	vggParams := nn.NewMiniVGG(p.r.Split(5), ds.Classes).NumParams()
	p.gradProbes(nWide, vggParams)
	p.frameProbes(nWide)
	if err := p.netProbes(); err != nil {
		return err
	}
	p.psProbes(nWide)
	p.desProbes()
	if err := p.commProbes(); err != nil {
		return err
	}
	p.schedProbe()
	return p.apiProbe(seed)
}

// tensorProbes times the GEMM entry points at the three shapes that carry
// the workloads' compute, and the im2col gather in front of every conv.
func (p *prober) tensorProbes() {
	gflops := func(name string, m, k, n int, fn func()) {
		p.set(name, 2*float64(m)*float64(k)*float64(n)/p.measure(name, fn)/1e9)
	}
	// MiniResNet conv 8→8 3×3 on 16×16 at batch 16: one fused GEMM per
	// layer, [B·H·W × C·k·k] · [outC × C·k·k]ᵀ.
	a, w, c := p.randTensor(16*256, 72), p.randTensor(8, 72), tensor.New(16*256, 8)
	bias := p.randVec(8, 0.1)
	gflops("tensor.gemm_gflops.miniresnet", 16*256, 72, 8, func() { tensor.MatMulBiasReLU(a, w, c, bias) })
	// Wide MLP's dominant layer at batch 8: [8 × 4096] · [512 × 4096]ᵀ.
	a2, w2, c2 := p.randTensor(8, wideHidden1), p.randTensor(wideHidden2, wideHidden1), tensor.New(8, wideHidden2)
	bias2 := p.randVec(wideHidden2, 0.1)
	gflops("tensor.gemm_gflops.widemlp", 8, wideHidden1, wideHidden2, func() { tensor.MatMulBiasReLU(a2, w2, c2, bias2) })
	// The paper-scale reference shape (ResNet-50 conv as GEMM).
	a3, b3, c3 := p.randTensor(256, 2304), p.randTensor(2304, 196), tensor.New(256, 196)
	gflops("tensor.gemm_gflops.resnet50conv", 256, 2304, 196, func() { tensor.MatMul(a3, b3, c3) })

	in := p.randTensor(8, 16, 16)
	cols := make([]float32, 256*72)
	p.gbps("tensor.im2col_gbps", 4*len(cols), func() { tensor.Im2colRows(in, 3, 3, 1, 1, cols) })
}

func (p *prober) nnProbes(model string, s *stepper) {
	s.batch()
	p.set("nn.fwd_ms."+model, 1e3*p.measure("nn.fwd_ms."+model, func() { s.model.Forward(s.x, true) }))
	p.set("nn.fwdbwd_ms."+model, 1e3*p.measure("nn.fwdbwd_ms."+model, s.fwdbwd))
	p.set("single.step_ms."+model, 1e3*p.measure("single.step_ms."+model, s.step))
}

// allocProbe counts heap allocations per steady-state train step.
func (p *prober) allocProbe(s *stepper) {
	p.tid++
	sp := p.tr.StartSpan("nn.step_allocs", "probe", benchPid, p.tid)
	defer sp.End()
	const steps = 20
	s.step()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < steps; i++ {
		s.step()
	}
	runtime.ReadMemStats(&after)
	p.set("nn.step_allocs", float64(after.Mallocs-before.Mallocs)/steps)
}

func (p *prober) optDataProbes(n int, s *stepper) {
	params, g := p.randVec(n, 0.1), p.randVec(n, 0.01)
	sgd := opt.NewSGD(n, 0.9, 1e-4)
	p.gbps("opt.sgd_gbps", 4*n, func() { sgd.Step(params, g, 0.01) })
	// 64 batches per call so the timer's own cost stays below a percent.
	p.set("data.batch_us", 1e6/64*p.measure("data.batch_us", func() {
		for i := 0; i < 64; i++ {
			s.batch()
		}
	}))
}

// gradProbes times the three gradient codecs: int8 and fp16 at the wide
// MLP's gradient size (the live quantized wire), DGC at MiniVGG's (the
// simulator's compressed path). GB/s counts dense float32 bytes.
func (p *prober) gradProbes(nWide, nVGG int) {
	g, dst := p.randVec(nWide, 0.01), make([]float32, nWide)
	var q8 grad.Quantized8
	p.gbps("grad.int8_quant_gbps", 4*nWide, func() { q8 = grad.Quantize8(g) })
	p.gbps("grad.int8_dequant_gbps", 4*nWide, func() { _ = grad.Dequantize8(q8, dst) }) // lengths match
	var q16 grad.QuantizedF16
	p.gbps("grad.f16_quant_gbps", 4*nWide, func() { q16 = grad.QuantizeF16(g) })
	p.gbps("grad.f16_dequant_gbps", 4*nWide, func() { _ = grad.DequantizeF16(q16, dst) }) // lengths match

	gv, dense := p.randVec(nVGG, 0.01), make([]float32, nVGG)
	comp := grad.NewCompressor(grad.DefaultDGC(0.9, 0), nVGG)
	var sp grad.Sparse
	p.gbps("grad.dgc_compress_gbps", 4*nVGG, func() { sp = comp.Compress(gv) })
	p.gbps("grad.dgc_decompress_gbps", 4*nVGG, func() { _ = grad.Decompress(sp, 1, dense) }) // built by Compress
}

// frameProbes times the wire codec on one full wide-MLP gradient: the dense
// Vec frame (length prefix + CRC over 12.6 MB) and the int8 QuantVec blob.
func (p *prober) frameProbes(n int) {
	f := &xport.Frame{Kind: 1, Vec: p.randVec(n, 0.01)}
	buf := make([]byte, 0, f.EncodedLen())
	p.gbps("xport.frame_encode_gbps", f.EncodedLen(), func() { buf = f.AppendEncode(buf[:0]) })
	p.gbps("xport.frame_decode_gbps", len(buf), func() { _, _ = xport.DecodeFrame(buf, xport.MaxFrameBytes) }) // just encoded

	q := grad.Quantize8(f.Vec)
	qv := xport.QuantVec{Codec: xport.QuantInt8, Scale: q.Scale, I8: q.Q}
	qbuf := make([]byte, 0, qv.EncodedLen())
	p.gbps("xport.quantvec_encode_gbps", qv.EncodedLen(), func() { qbuf = qv.AppendEncode(qbuf[:0]) })
	p.gbps("xport.quantvec_decode_gbps", len(qbuf), func() { _, _ = xport.DecodeQuantVec(qbuf) }) // just encoded
}

// ringChunkFloats is the ring AllReduce chunk of the wide MLP at 4 ranks:
// a quarter of the gradient, ≈3 MB on the wire.
const ringChunkFloats = 3150000 / 4

// exchange times this round trip between two endpoints: a sends burst
// copies of f, b answers the last one with an empty frame. b's receive loop
// runs on a goroutine that exits when exchange closes b.
func (p *prober) exchange(name string, a, b xport.Endpoint, f *xport.Frame, burst int) (sec float64, err error) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		for n := 1; ; n++ {
			if _, err := b.Recv(0); err != nil {
				return
			}
			if n%burst == 0 && b.Send(a.Rank(), &xport.Frame{Kind: 2}) != nil {
				return
			}
		}
	}()
	sec = p.measure(name, func() {
		for i := 0; i < burst && err == nil; i++ {
			err = a.Send(b.Rank(), f)
		}
		if err == nil {
			_, err = a.Recv(10 * time.Second)
		}
	})
	b.Close()
	<-done
	a.Close()
	return sec, err
}

// tcpPair opens two loopback TCP endpoints that know each other.
func tcpPair() (a, b *xport.TCPNet, err error) {
	if a, err = xport.ListenTCP(0, 2, "127.0.0.1:0"); err != nil {
		return nil, nil, err
	}
	if b, err = xport.ListenTCP(1, 2, "127.0.0.1:0"); err != nil {
		a.Close()
		return nil, nil, err
	}
	addrs := []string{a.Addr(), b.Addr()}
	a.SetPeers(addrs)
	b.SetPeers(addrs)
	return a, b, nil
}

// netProbes times the transports themselves: the round trip of a 64-byte
// frame over loopback TCP, and one-way streaming of ring-chunk frames over
// TCP and over the in-process ChanNet (which still runs the frame codec but
// skips the socket — a reference rung).
func (p *prober) netProbes() error {
	const burst = 4
	chunk := &xport.Frame{Kind: 1, Vec: make([]float32, ringChunkFloats)}
	gbps := func(sec float64) float64 { return float64(burst*chunk.EncodedLen()) / sec / 1e9 }

	a, b, err := tcpPair()
	if err != nil {
		return err
	}
	sec, err := p.exchange("xport.tcp_rtt_us", a, b, &xport.Frame{Kind: 1, Data: make([]byte, 64)}, 1)
	if err != nil {
		return fmt.Errorf("xport.tcp_rtt_us: %w", err)
	}
	p.set("xport.tcp_rtt_us", 1e6*sec)

	if a, b, err = tcpPair(); err != nil {
		return err
	}
	if sec, err = p.exchange("xport.tcp_gbps", a, b, chunk, burst); err != nil {
		return fmt.Errorf("xport.tcp_gbps: %w", err)
	}
	p.set("xport.tcp_gbps", gbps(sec))

	cn := xport.NewChanNet(2)
	if sec, err = p.exchange("xport.chan_gbps", cn.Endpoint(0), cn.Endpoint(1), chunk, burst); err != nil {
		return fmt.Errorf("xport.chan_gbps: %w", err)
	}
	p.set("xport.chan_gbps", gbps(sec))
	return nil
}

// psProbes times the parameter server's two hot calls on the wide MLP.
func (p *prober) psProbes(n int) {
	g := ps.NewGlobal(p.randVec(n, 0.1), 0.9, 1e-4)
	gradVec, dst := p.randVec(n, 0.01), make([]float32, n)
	whole := ps.Single(n)[0]
	p.gbps("ps.apply_grad_gbps", 4*n, func() { g.ApplyGrad(whole, gradVec, 1, 0.01) })
	p.gbps("ps.snapshot_gbps", 4*n, func() { g.Snapshot(whole, dst) })
}

// desProbes times the simulator's two primitives: a process wake-up
// (64 processes sleeping in lock step) and a simnet send + receive.
func (p *prober) desProbes() {
	const procs, rounds = 64, 200
	var events uint64
	sec := p.measure("des.events_per_s", func() {
		eng := des.NewEngine()
		for i := 0; i < procs; i++ {
			eng.Spawn("sleeper", func(pr *des.Proc) {
				for k := 0; k < rounds; k++ {
					pr.Sleep(1)
				}
			})
		}
		eng.Run(0)
		events = eng.Events()
	})
	p.set("des.events_per_s", float64(events)/sec)

	const nodes, msgs = 16, 100
	c := cluster.Paper10G(nodes)
	sec = p.measure("simnet.sends_per_s", func() {
		eng := des.NewEngine()
		net := simnet.New(eng, c)
		ids := make([]int, nodes)
		for w := range ids {
			ids[w] = net.AddNode(c.MachineOfWorker(w)).ID
		}
		for w := range ids {
			w := w
			eng.Spawn("sender", func(pr *des.Proc) {
				for k := 0; k < msgs; k++ {
					net.Send(simnet.Msg{From: ids[w], To: ids[(w+1)%nodes], Kind: 7, Bytes: 1 << 20})
				}
				for k := 0; k < msgs; k++ {
					net.Node(ids[w]).Inbox.Recv(pr)
				}
			})
		}
		eng.Run(0)
	})
	p.set("simnet.sends_per_s", nodes*msgs/sec)
}

// allReduce runs one cost-only AllReduce of the named collective over n
// simulated workers and returns the virtual completion time.
func allReduce(name string, c cluster.Config, n int, bytes int64) (virtualSec float64, err error) {
	eng := des.NewEngine()
	net := simnet.New(eng, c)
	ids := make([]int, n)
	for w := range ids {
		ids[w] = net.AddNode(c.MachineOfWorker(w)).ID
	}
	o := comm.CollectiveOpts{Op: comm.OpRingAllReduce, Net: net, Nodes: ids, VirtualLen: 1000, Bytes: bytes, Kind: 7}
	if name == "hierarchical" {
		tp, err := topo.New(c, n)
		if err != nil {
			return 0, err
		}
		o.Op, o.Groups = comm.OpHierarchicalAllReduce, tp.Groups
	}
	errs := make([]error, n)
	for w := 0; w < n; w++ {
		o := o
		o.Self = w
		eng.Spawn("rank", func(pr *des.Proc) { _, _, errs[o.Self] = comm.Collective(pr, o) })
	}
	eng.Run(0)
	for _, err := range errs {
		if err != nil {
			return 0, err
		}
	}
	if stuck := eng.Stuck(); len(stuck) > 0 {
		return 0, fmt.Errorf("%s allreduce at n=%d: %d stuck ranks", name, n, len(stuck))
	}
	return eng.Now(), nil
}

// commProbes times one simulated AllReduce at the sizes sim-cost-mix uses:
// host milliseconds (what a user waits), the exact virtual milliseconds
// (what the model says), and the cost model's prediction over the latter —
// the analytic bound beside the measured rung.
func (p *prober) commProbes() error {
	vgg, resnet := costmodel.VGG16().TotalBytes(), costmodel.ResNet50().TotalBytes()
	var virtual float64
	var err error
	c128 := cluster.Paper10G(128)
	p.set("comm.ring_host_ms.n128", 1e3*p.measure("comm.ring_host_ms.n128", func() {
		if err == nil {
			virtual, err = allReduce("ring", c128, 128, vgg)
		}
	}))
	if err != nil {
		return err
	}
	p.set("comm.ring_virtual_ms.n128", 1e3*virtual)
	pred, err := costmodel.PredictAllReduceSec("ring", c128, 128, vgg)
	if err != nil {
		return err
	}
	p.set("costmodel.ring_pred_ratio", pred/virtual)

	c256 := cluster.Paper10G(256)
	p.set("comm.hier_host_ms.n256", 1e3*p.measure("comm.hier_host_ms.n256", func() {
		if err == nil {
			_, err = allReduce("hierarchical", c256, 256, resnet)
		}
	}))
	return err
}

// schedProbe times submitting a trivial task to the compute pool and
// joining it — the fixed cost the pool adds to every replica pass.
func (p *prober) schedProbe() {
	const tasks = 256
	pool := sched.NewPool(runtime.GOMAXPROCS(0))
	defer pool.Close()
	futs := make([]*sched.Future[int], tasks)
	sec := p.measure("sched.submit_ns", func() {
		for i := range futs {
			futs[i] = sched.Submit(pool, func() int { return i })
		}
		for _, f := range futs {
			f.Wait()
		}
	})
	p.set("sched.submit_ns", 1e9*sec/tasks)
}

// apiProbe times spec → core.Config for a real-math spec (dataset
// generation dominates) — the part of set-up the api layer owns.
func (p *prober) apiProbe(seed uint64) error {
	var err error
	spec := buildWorkloads(seed, 1)[0].cases[0].spec
	p.set("api.config_ms", 1e3*p.measure("api.config_ms", func() {
		s := spec
		if _, e := s.Config(); e != nil {
			err = e
		}
	}))
	return err
}
