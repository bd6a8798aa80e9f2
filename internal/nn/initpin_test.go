package nn

import (
	"hash/fnv"
	"math"
	"runtime"
	"testing"

	"disttrain/internal/data"
	"disttrain/internal/rng"
)

// The bits every run starts from: the He-initialised parameters of each
// model FactoryByName builds, of a 3.15 M-parameter dense stack (the size of
// the wide MLP the benchmark trains) and the three synthetic datasets, at two
// seeds. Each hash also covers the next word of the stream after the build,
// so a draw taken or skipped shows even where the values agree. Recorded
// with the scalar NormFloat64 loops, before bulk draws went through
// tensor.FillNormal: a slip in the draw or the transform fails here, by
// name, rather than as a moved golden training run.
var initPins = []struct {
	name string
	seed uint64
	want uint64
}{
	{"mlp", 1, 0xbb62a2f2abf4b0ce},
	{"mlp", 2, 0x0d469590923965e1},
	{"minicnn", 1, 0x14e6984a6493b5b0},
	{"minicnn", 2, 0x5ba1bf667d66bfb8},
	{"miniresnet", 1, 0x7c8f4f41f4e29424},
	{"miniresnet", 2, 0x118b66e1d3b070ba},
	{"miniresnetbn", 1, 0x21ad3d59c707e483},
	{"miniresnetbn", 2, 0x3597af79d08dda14},
	{"minivgg", 1, 0x73262f15a420d605},
	{"minivgg", 2, 0x5fae839607af8da3},
	{"dense3m", 1, 0xd44a8533ced88610},
	{"dense3m", 2, 0x2b76bdc1ccff649a},
}

var dataPins = []struct {
	name string
	seed uint64
	n    int
	want uint64
}{
	{"shapes16", 1, 300, 0x79b0536f67ca1d4d},
	{"shapes16", 2, 300, 0xff4794f77aabbfc6},
	{"gauss", 1, 1000, 0x05736ef63baec515},
	{"gauss", 2, 1000, 0xb0a5c53c7cd478e0},
	{"spiral", 1, 1000, 0xf2e983c7e44131a7},
	{"spiral", 2, 1000, 0x32eca8f0a4f0276d},
}

// pinHash is FNV-1a over the IEEE bits of x, then the stream's next word.
func pinHash(x []float32, r *rng.RNG) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(u uint64, n int) {
		for i := range n {
			b[i] = byte(u >> (8 * i))
		}
		h.Write(b[:n])
	}
	for _, v := range x {
		put(uint64(math.Float32bits(v)), 4)
	}
	put(r.Uint64(), 8)
	return h.Sum64()
}

// TestInitAndDataBitsPinned checks the pins at 1, 2 and 8 procs: the large
// draws are split over that many segments, and no bit may depend on it.
func TestInitAndDataBitsPinned(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		checkInitAndDataPins(t, procs)
	}
}

func checkInitAndDataPins(t *testing.T, procs int) {
	for _, p := range initPins {
		var build ModelFactory
		if p.name == "dense3m" {
			build = func(r *rng.RNG) *Model {
				return NewModel("dense3m",
					NewDenseReLU("fc0", 256, 4096, r),
					NewDenseReLU("fc1", 4096, 512, r),
					NewDense("fc2", 512, 8, r))
			}
		} else {
			var err error
			if build, err = FactoryByName(p.name, 8, []int{1, 16, 16}); err != nil {
				t.Fatal(err)
			}
		}
		r := rng.New(p.seed)
		m := build(r)
		if got := pinHash(m.FlatParams(nil), r); got != p.want {
			t.Errorf("%s at seed %d, %d procs: initial parameters hash %#016x, pinned %#016x — the normal draw under RandNormal moved",
				p.name, p.seed, procs, got, p.want)
		}
	}
	for _, p := range dataPins {
		r := rng.New(p.seed)
		ds, err := data.ByName(p.name, r, p.n)
		if err != nil {
			t.Fatal(err)
		}
		x := append([]float32(nil), ds.X.Data...)
		for _, y := range ds.Y {
			x = append(x, math.Float32frombits(uint32(y)))
		}
		if got := pinHash(x, r); got != p.want {
			t.Errorf("%s at seed %d, %d procs: dataset hash %#016x, pinned %#016x — the generator's draws moved",
				p.name, p.seed, procs, got, p.want)
		}
	}
}
