package costmodel

import (
	"math"
	"testing"

	"disttrain/internal/rng"
)

func TestResNet50ParamCount(t *testing.T) {
	p := ResNet50()
	got := p.TotalParams()
	// Paper: ResNet-50 has 23M parameters (actual 25.5M incl. BN; our conv+fc
	// approximation should land within 10% of 23-26M).
	if got < 21e6 || got > 28e6 {
		t.Fatalf("resnet50 params = %d, want ~23-26M", got)
	}
}

func TestVGG16ParamCount(t *testing.T) {
	p := VGG16()
	got := p.TotalParams()
	// Paper: VGG-16 has 138M parameters.
	if got < 130e6 || got > 145e6 {
		t.Fatalf("vgg16 params = %d, want ~138M", got)
	}
}

func TestVGG16Skew(t *testing.T) {
	p := VGG16()
	var maxLayer int64
	for _, l := range p.Layers {
		if l.Params > maxLayer {
			maxLayer = l.Params
		}
	}
	frac := float64(maxLayer) / float64(p.TotalParams())
	// Paper: the first FC layer holds about 75% of VGG-16's parameters.
	if frac < 0.70 || frac > 0.80 {
		t.Fatalf("vgg16 fc1 fraction = %.3f, want ~0.75", frac)
	}
}

func TestResNetLessSkewedThanVGG(t *testing.T) {
	skew := func(p *Profile) float64 {
		var maxLayer int64
		for _, l := range p.Layers {
			if l.Params > maxLayer {
				maxLayer = l.Params
			}
		}
		return float64(maxLayer) / float64(p.TotalParams())
	}
	if skew(ResNet50()) >= skew(VGG16()) {
		t.Fatal("expected ResNet-50 layer sizes to be less skewed than VGG-16")
	}
}

func TestFLOPsOrders(t *testing.T) {
	// Counting multiply+add as 2 FLOPs: ResNet-50 forward ≈ 8 GFLOPs/sample
	// (≈4 GMACs), VGG-16 ≈ 31 GFLOPs/sample (≈15.5 GMACs).
	r := ResNet50().FwdFLOPsPerSample()
	if r < 6e9 || r > 11e9 {
		t.Fatalf("resnet50 fwd = %.2e, want ~8e9", r)
	}
	v := VGG16().FwdFLOPsPerSample()
	if v < 24e9 || v > 38e9 {
		t.Fatalf("vgg16 fwd = %.2e, want ~31e9", v)
	}
}

func TestSegmentsMatchTotals(t *testing.T) {
	for _, p := range []*Profile{ResNet50(), VGG16()} {
		segs := p.Segments()
		total := 0
		off := 0
		for _, s := range segs {
			if s.Off != off {
				t.Fatalf("%s: segment %s off %d, want %d", p.Name, s.Name, s.Off, off)
			}
			off += s.Len
			total += s.Len
		}
		if int64(total) != p.TotalParams() {
			t.Fatalf("%s: segments total %d != %d", p.Name, total, p.TotalParams())
		}
	}
}

func TestMeanIterSecPlausible(t *testing.T) {
	// ResNet-50 batch 128 on TITAN V: a few hundred ms per iteration.
	w := NewWorkload(ResNet50(), TitanV(), 128)
	s := w.MeanIterSec()
	if s < 0.1 || s > 1.0 {
		t.Fatalf("resnet50 iter = %v s, want 0.1-1.0", s)
	}
	// VGG-16 must be slower per sample *and* much bigger on the wire.
	v := NewWorkload(VGG16(), TitanV(), 96)
	if v.MeanIterSec() <= s {
		t.Fatal("vgg16 iteration should cost more than resnet50")
	}
}

func TestCommToComputeRatioOrdering(t *testing.T) {
	// The paper's taxonomy: VGG-16 is communication-intensive relative to
	// ResNet-50. bytes/computeTime must be clearly higher for VGG-16.
	r := NewWorkload(ResNet50(), TitanV(), 128)
	v := NewWorkload(VGG16(), TitanV(), 96)
	rRatio := float64(r.Profile.TotalBytes()) / r.MeanIterSec()
	vRatio := float64(v.Profile.TotalBytes()) / v.MeanIterSec()
	if vRatio < 1.5*rRatio {
		t.Fatalf("vgg comm/compute %.3e not >> resnet %.3e", vRatio, rRatio)
	}
}

func TestSampleIterJitter(t *testing.T) {
	w := NewWorkload(ResNet50(), TitanV(), 128)
	r := rng.New(1)
	mean := w.MeanIterSec()
	var sum, minV, maxV float64
	minV = math.Inf(1)
	const n = 2000
	for i := 0; i < n; i++ {
		s := mean * w.SampleMult(r)
		sum += s
		if s < minV {
			minV = s
		}
		if s > maxV {
			maxV = s
		}
	}
	if math.Abs(sum/n-mean)/mean > 0.01 {
		t.Fatalf("jitter biased: mean %v vs %v", sum/n, mean)
	}
	// Paper: ~5% spread between fastest and slowest; with 2% std the
	// fast/slow spread over many draws lands in a few-to-20% band.
	spread := (maxV - minV) / mean
	if spread < 0.02 || spread > 0.4 {
		t.Fatalf("spread = %v, want a few percent", spread)
	}
}

func TestProfileByName(t *testing.T) {
	for _, n := range []string{"resnet50", "vgg16"} {
		if _, err := ProfileByName(n); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ProfileByName("lenet"); err == nil {
		t.Fatal("expected error")
	}
}

func TestBERTBaseParamCount(t *testing.T) {
	p := BERTBase()
	got := p.TotalParams()
	// BERT-Base: ~110M parameters.
	if got < 100e6 || got > 120e6 {
		t.Fatalf("bertbase params = %d, want ~110M", got)
	}
}

func TestBERTBaseUniformBlocks(t *testing.T) {
	// Unlike VGG-16, BERT's transformer blocks are uniform: excluding the
	// embedding table, no layer should dominate.
	p := BERTBase()
	var maxLayer, total int64
	for _, l := range p.Layers {
		if l.Name == "embeddings" {
			continue
		}
		if l.Params > maxLayer {
			maxLayer = l.Params
		}
		total += l.Params
	}
	if frac := float64(maxLayer) / float64(total); frac > 0.1 {
		t.Fatalf("bert block fraction %.3f, want uniform (<0.1)", frac)
	}
}

func TestBERTProfileByName(t *testing.T) {
	if _, err := ProfileByName("bertbase"); err != nil {
		t.Fatal(err)
	}
}
