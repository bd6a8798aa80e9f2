// Package costmodel provides compute- and communication-cost profiles for
// the DNN workloads the paper evaluates.
//
// The paper measured ResNet-50 (23 M parameters, computation-intensive) and
// VGG-16 (138 M parameters, communication-intensive, ~75 % of parameters in
// the first fully connected layer) on NVIDIA TITAN V GPUs (14.90 TFLOPS).
// We cannot run those models; instead this package reproduces their
// *cost structure* — per-layer parameter sizes, per-iteration FLOPs, and a
// straggler jitter the paper reports at ~5 % between fastest and slowest
// worker — which is what the scalability and breakdown experiments depend
// on.
package costmodel

import (
	"fmt"

	"disttrain/internal/nn"
	"disttrain/internal/rng"
)

// BytesPerParam is the wire size of one parameter/gradient (float32).
const BytesPerParam = 4

// LayerCost describes one layer's contribution to cost.
type LayerCost struct {
	Name string
	// Params is the number of learnable scalars in the layer.
	Params int64
	// FwdFLOPs is the forward cost per sample.
	FwdFLOPs float64
}

// Profile is a model cost profile.
type Profile struct {
	Name   string
	Layers []LayerCost
}

// TotalParams returns the total learnable scalar count.
func (p *Profile) TotalParams() int64 {
	var s int64
	for _, l := range p.Layers {
		s += l.Params
	}
	return s
}

// TotalBytes returns the wire size of a full gradient/parameter message.
func (p *Profile) TotalBytes() int64 { return p.TotalParams() * BytesPerParam }

// FwdFLOPsPerSample returns the summed forward cost of one sample.
func (p *Profile) FwdFLOPsPerSample() float64 {
	var s float64
	for _, l := range p.Layers {
		s += l.FwdFLOPs
	}
	return s
}

// Segments returns the layer layout of the flat parameter vector, the form
// parameter sharding consumes.
func (p *Profile) Segments() []nn.Segment {
	segs := make([]nn.Segment, 0, len(p.Layers))
	off := 0
	for _, l := range p.Layers {
		segs = append(segs, nn.Segment{Name: l.Name, Off: off, Len: int(l.Params)})
		off += int(l.Params)
	}
	return segs
}

// ResNet50 returns a profile approximating ResNet-50: 16 bottleneck blocks
// in 4 stages plus stem and final FC, ≈23 M parameters with moderate
// per-layer skew and a high FLOPs-per-parameter ratio (the
// "computation-intensive" regime).
func ResNet50() *Profile {
	p := &Profile{Name: "resnet50"}
	add := func(name string, params int64, flops float64) {
		p.Layers = append(p.Layers, LayerCost{Name: name, Params: params, FwdFLOPs: flops})
	}
	add("stem.conv", 9_408, 118e6) // 7x7x64, 112x112 output
	// (blocks per stage, mid channels, spatial positions) per ResNet-50 stage
	stages := []struct {
		blocks int
		width  int64
		pos    float64
	}{
		{3, 64, 56 * 56},
		{4, 128, 28 * 28},
		{6, 256, 14 * 14},
		{3, 512, 7 * 7},
	}
	in := int64(64) // stem output channels
	for si, st := range stages {
		for b := 0; b < st.blocks; b++ {
			// Bottleneck: 1x1 reduce, 3x3, 1x1 expand (+ projection on the
			// first block of a stage).
			c1 := in * st.width
			c2 := 9 * st.width * st.width
			c3 := st.width * (st.width * 4)
			proj := int64(0)
			if b == 0 {
				proj = in * st.width * 4
			}
			params := c1 + c2 + c3 + proj
			flops := 2 * float64(params) * st.pos
			add(fmt.Sprintf("stage%d.block%d", si+1, b), params, flops)
			in = st.width * 4
		}
	}
	add("fc", 2048*1000+1000, 2*2048*1000)
	return p
}

// VGG16 returns a profile approximating VGG-16: 13 conv layers plus 3 FC
// layers, ≈138 M parameters, with fc1 (25088×4096 ≈ 103 M) holding ~75 % of
// all parameters — the skew that makes layer-wise sharding the bottleneck
// in the paper's VGG experiments.
func VGG16() *Profile {
	p := &Profile{Name: "vgg16"}
	add := func(name string, params int64, flops float64) {
		p.Layers = append(p.Layers, LayerCost{Name: name, Params: params, FwdFLOPs: flops})
	}
	convs := []struct {
		name    string
		in, out int64
		pos     float64
	}{
		{"conv1_1", 3, 64, 224 * 224}, {"conv1_2", 64, 64, 224 * 224},
		{"conv2_1", 64, 128, 112 * 112}, {"conv2_2", 128, 128, 112 * 112},
		{"conv3_1", 128, 256, 56 * 56}, {"conv3_2", 256, 256, 56 * 56}, {"conv3_3", 256, 256, 56 * 56},
		{"conv4_1", 256, 512, 28 * 28}, {"conv4_2", 512, 512, 28 * 28}, {"conv4_3", 512, 512, 28 * 28},
		{"conv5_1", 512, 512, 14 * 14}, {"conv5_2", 512, 512, 14 * 14}, {"conv5_3", 512, 512, 14 * 14},
	}
	for _, c := range convs {
		params := 9*c.in*c.out + c.out
		add(c.name, params, 2*float64(9*c.in*c.out)*c.pos)
	}
	add("fc1", 25088*4096+4096, 2*25088*4096)
	add("fc2", 4096*4096+4096, 2*4096*4096)
	add("fc3", 4096*1000+1000, 2*4096*1000)
	return p
}

// BERTBase returns a profile approximating BERT-Base (Devlin et al. — the
// paper's introduction motivates the study with exactly this class of
// model): 12 transformer blocks of hidden size 768 with 3072-wide FFNs,
// plus the embedding tables, ≈110 M parameters. Per-layer sizes are uniform
// across blocks (unlike VGG-16's skew), and the FLOPs-per-parameter ratio
// at sequence length 128 sits between the two CNNs. Provided as an
// extension workload for the scalability experiments.
func BERTBase() *Profile {
	p := &Profile{Name: "bertbase"}
	add := func(name string, params int64, flops float64) {
		p.Layers = append(p.Layers, LayerCost{Name: name, Params: params, FwdFLOPs: flops})
	}
	const (
		hidden = 768
		ffn    = 3072
		seqLen = 128
		vocab  = 30522
	)
	// Embeddings (word + position + type); FLOPs are lookup-dominated and
	// negligible next to the blocks.
	add("embeddings", int64(vocab+512+2)*hidden, 1e6)
	for b := 0; b < 12; b++ {
		// Attention: Q,K,V,O projections (4·h²) + per-position attention
		// matmuls; FFN: two h×4h projections.
		attnParams := int64(4*hidden*hidden + 4*hidden)
		attnFlops := 2*float64(attnParams)*seqLen + 2*2*float64(seqLen)*float64(seqLen)*hidden
		add(fmt.Sprintf("block%d.attn", b), attnParams, attnFlops)
		ffnParams := int64(2*hidden*ffn + hidden + ffn)
		add(fmt.Sprintf("block%d.ffn", b), ffnParams, 2*float64(ffnParams)*seqLen)
	}
	add("pooler", hidden*hidden+hidden, 2*float64(hidden*hidden))
	return p
}

// ProfileByName resolves "resnet50", "vgg16" or "bertbase".
func ProfileByName(name string) (*Profile, error) {
	switch name {
	case "resnet50":
		return ResNet50(), nil
	case "vgg16":
		return VGG16(), nil
	case "bertbase":
		return BERTBase(), nil
	default:
		return nil, fmt.Errorf("costmodel: unknown profile %q", name)
	}
}

// GPU models an accelerator's effective training throughput.
type GPU struct {
	// PeakFLOPS is the peak single-precision rate (TITAN V: 14.9e12).
	PeakFLOPS float64
	// Efficiency is the achieved fraction of peak during DNN training.
	Efficiency float64
	// JitterStd is the relative standard deviation of per-iteration compute
	// time; the paper observed ~5 % spread between fastest and slowest
	// workers on homogeneous hardware.
	JitterStd float64
	// StragglerProb is the probability that an iteration stalls (paging,
	// preemption, thermal throttling); 0 disables straggler injection.
	StragglerProb float64
	// StragglerMult multiplies the iteration time when a straggle occurs.
	StragglerMult float64
}

// TitanV returns the paper's GPU at its measured training efficiency:
// ~330 ResNet-50 images/s in fp32 corresponds to ≈55 % of the 14.90 TFLOPS
// peak at ~8.2 GFLOPs (multiply+add) per forward sample.
func TitanV() GPU {
	return GPU{PeakFLOPS: 14.90e12, Efficiency: 0.55, JitterStd: 0.02}
}

// Workload is a (model, GPU, batch size) combination plus the backward-pass
// cost multiplier (backward ≈ 2× forward for CNNs).
type Workload struct {
	Profile *Profile
	GPU     GPU
	Batch   int
	BwdMult float64
}

// NewWorkload builds a workload with standard backward cost (2× forward).
func NewWorkload(p *Profile, gpu GPU, batch int) Workload {
	return Workload{Profile: p, GPU: gpu, Batch: batch, BwdMult: 2}
}

// MeanIterSec returns the mean compute time of one training iteration
// (forward + backward on one batch) without jitter.
func (w Workload) MeanIterSec() float64 {
	fl := w.Profile.FwdFLOPsPerSample() * float64(w.Batch) * (1 + w.BwdMult)
	return fl / (w.GPU.PeakFLOPS * w.GPU.Efficiency)
}

// SampleMult draws one iteration-time multiplier: Gaussian jitter plus an
// occasional straggler stall.
func (w Workload) SampleMult(r *rng.RNG) float64 {
	j := 1 + r.NormFloat64()*w.GPU.JitterStd
	if j < 0.5 {
		j = 0.5
	}
	if w.GPU.StragglerProb > 0 && r.Bernoulli(w.GPU.StragglerProb) {
		mult := w.GPU.StragglerMult
		if mult < 1 {
			mult = 1
		}
		j *= mult
	}
	return j
}

// AggRateBytesPerSec is the rate at which a parameter-server shard can
// apply incoming gradients to its segment (memory-bandwidth bound on the
// host CPU).
const AggRateBytesPerSec = 4e9
