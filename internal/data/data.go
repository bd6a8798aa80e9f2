// Package data provides deterministic synthetic classification datasets and
// the per-worker sharding/sampling machinery of data-parallel training.
//
// ImageNet-1K (the paper's dataset) is a data gate; these generators are the
// substitution: procedurally drawn 16×16 images (shapes16) for the CNN
// models and low-dimensional cluster/spiral tasks for fast tests. What
// matters for the reproduction is that the task is learnable, that SGD noise
// is real, and that every worker sees a disjoint shard — the dynamics the
// distributed algorithms act on.
package data

import (
	"fmt"

	"disttrain/internal/rng"
	"disttrain/internal/tensor"
)

// Dataset is an in-memory labelled dataset. X has shape [N, ...sample].
type Dataset struct {
	Name    string
	X       *tensor.Tensor
	Y       []int
	Classes int
}

// N returns the number of samples.
func (d *Dataset) N() int { return len(d.Y) }

// SampleShape returns the per-sample shape (X's shape without the leading N).
func (d *Dataset) SampleShape() []int { return d.X.Shape[1:] }

// sampleSize returns the number of scalars per sample.
func (d *Dataset) sampleSize() int {
	s := 1
	for _, v := range d.X.Shape[1:] {
		s *= v
	}
	return s
}

// Gather copies the samples at the given indices into a batch tensor and
// label slice (allocated if nil or wrongly sized) and returns them.
func (d *Dataset) Gather(idx []int, x *tensor.Tensor, y []int) (*tensor.Tensor, []int) {
	ss := d.sampleSize()
	if x == nil || x.Size() != len(idx)*ss {
		x = tensor.New(append([]int{len(idx)}, d.X.Shape[1:]...)...)
	} else {
		// Reuse the header in place so steady-state batches allocate nothing.
		x.Shape = append(x.Shape[:0], len(idx))
		x.Shape = append(x.Shape, d.X.Shape[1:]...)
	}
	if len(y) != len(idx) {
		y = make([]int, len(idx))
	}
	for i, j := range idx {
		copy(x.Data[i*ss:(i+1)*ss], d.X.Data[j*ss:(j+1)*ss])
		y[i] = d.Y[j]
	}
	return x, y
}

// Split divides the dataset into a training and a test set of testN samples
// taken deterministically from a shuffled order.
func (d *Dataset) Split(r *rng.RNG, testN int) (train, test *Dataset) {
	if testN <= 0 || testN >= d.N() {
		panic(fmt.Sprintf("data: testN %d out of range for %d samples", testN, d.N()))
	}
	perm := r.Perm(d.N())
	testIdx, trainIdx := perm[:testN], perm[testN:]
	tx, ty := d.Gather(trainIdx, nil, nil)
	sx, sy := d.Gather(testIdx, nil, nil)
	return &Dataset{Name: d.Name + ".train", X: tx, Y: ty, Classes: d.Classes},
		&Dataset{Name: d.Name + ".test", X: sx, Y: sy, Classes: d.Classes}
}

// ShardIndices partitions [0, n) into `workers` contiguous, near-equal,
// disjoint shards and returns shard w. Every index is assigned to exactly
// one shard.
func ShardIndices(n, workers, w int) []int {
	if workers <= 0 || w < 0 || w >= workers {
		panic(fmt.Sprintf("data: shard %d of %d", w, workers))
	}
	lo := n * w / workers
	hi := n * (w + 1) / workers
	idx := make([]int, hi-lo)
	for i := range idx {
		idx[i] = lo + i
	}
	return idx
}

// Sampler yields mini-batches of indices drawn from one worker's shard,
// reshuffling the shard every epoch. It is deterministic given its RNG.
type Sampler struct {
	idx   []int
	batch int
	pos   int
	r     *rng.RNG
	epoch int
}

// NewSampler creates a sampler over the given shard indices.
func NewSampler(shard []int, batch int, r *rng.RNG) *Sampler {
	if batch <= 0 || len(shard) == 0 {
		panic("data: empty shard or non-positive batch")
	}
	if batch > len(shard) {
		batch = len(shard)
	}
	s := &Sampler{idx: append([]int(nil), shard...), batch: batch, r: r}
	s.shuffle()
	return s
}

func (s *Sampler) shuffle() {
	s.r.Shuffle(len(s.idx), func(i, j int) { s.idx[i], s.idx[j] = s.idx[j], s.idx[i] })
}

// Next returns the next batch of indices. Crossing an epoch boundary
// reshuffles; the returned slice is valid until the following call.
func (s *Sampler) Next() []int {
	if s.pos+s.batch > len(s.idx) {
		s.shuffle()
		s.pos = 0
		s.epoch++
	}
	b := s.idx[s.pos : s.pos+s.batch]
	s.pos += s.batch
	return b
}

// Epoch returns the number of completed passes over the shard.
func (s *Sampler) Epoch() int { return s.epoch }
