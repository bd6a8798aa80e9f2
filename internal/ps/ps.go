// Package ps is the parameter server of the centralized algorithms (BSP,
// ASP, SSP, EASGD): sharding partitioners that assign segments of the flat
// parameter vector to PS shards, the global parameter state the shards
// update, and Shard — what a shard does with an arriving message, written
// once as a state machine with no clock and no transport.
//
// The simulator (internal/core) and the live server (internal/live) are
// drivers: they receive, charge or spend time, hand the message to the same
// Shard and send the replies it names.
package ps

import (
	"fmt"
	"sort"

	"disttrain/internal/nn"
	"disttrain/internal/opt"
)

// Range is a contiguous slice [Off, Off+Len) of the flat parameter vector.
type Range struct {
	Off, Len int
}

// Assignment maps each shard to the ranges it owns. Ranges across all
// shards are disjoint and cover the whole vector.
type Assignment [][]Range

// Bytes returns the wire size of shard s's ranges (4 bytes per parameter).
func (a Assignment) Bytes(s int) int64 { return 4 * int64(a.Params(s)) }

// Params returns the number of parameters owned by shard s.
func (a Assignment) Params(s int) int {
	n := 0
	for _, r := range a[s] {
		n += r.Len
	}
	return n
}

// MaxBytes returns the largest shard size in bytes — the sharded-transfer
// critical path.
func (a Assignment) MaxBytes() int64 {
	var m int64
	for s := range a {
		if b := a.Bytes(s); b > m {
			m = b
		}
	}
	return m
}

// Validate checks that the assignment partitions [0, total) exactly.
func (a Assignment) Validate(total int) error {
	var all []Range
	for _, shard := range a {
		all = append(all, shard...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Off < all[j].Off })
	off := 0
	for _, r := range all {
		if r.Off != off {
			return fmt.Errorf("ps: gap or overlap at offset %d (next range at %d)", off, r.Off)
		}
		if r.Len <= 0 {
			return fmt.Errorf("ps: empty range at %d", r.Off)
		}
		off += r.Len
	}
	if off != total {
		return fmt.Errorf("ps: ranges cover %d of %d", off, total)
	}
	return nil
}

// LayerWise assigns whole layers to shards round-robin in layer order —
// TensorFlow's scheme and the paper's default. With skewed layer sizes
// (VGG-16's fc1) one shard ends up with most of the bytes.
func LayerWise(segs []nn.Segment, shards int) Assignment {
	if shards <= 0 {
		panic("ps: need at least one shard")
	}
	a := make(Assignment, shards)
	for i, s := range segs {
		k := i % shards
		a[k] = append(a[k], Range{Off: s.Off, Len: s.Len})
	}
	// A shard may be empty if there are fewer layers than shards; give such
	// shards nothing (their procs simply idle).
	return a
}

// Balanced splits the flat vector into near-equal contiguous chunks,
// ignoring layer boundaries — the "fine-grained sharding" the paper's
// Section VI-C says is necessary for models like VGG-16.
func Balanced(total, shards int) Assignment {
	if shards <= 0 || total <= 0 {
		panic("ps: invalid Balanced args")
	}
	a := make(Assignment, shards)
	for s := 0; s < shards; s++ {
		lo := total * s / shards
		hi := total * (s + 1) / shards
		if hi > lo {
			a[s] = []Range{{Off: lo, Len: hi - lo}}
		}
	}
	return a
}

// Single puts the whole vector on one shard (sharding disabled).
func Single(total int) Assignment {
	return Assignment{{Range{Off: 0, Len: total}}}
}

// Locator answers "which shard owns flat index i" in O(log ranges), so a
// sparse vector can be split across shards in one pass instead of probing
// every shard's range list per entry (O(shards·nnz) at high shard counts).
type Locator struct {
	offs   []int // sorted range starts
	ends   []int // matching range ends (exclusive)
	shards []int // owning shard per range
}

// NewLocator indexes an assignment's ranges by offset.
func NewLocator(a Assignment) *Locator {
	type owned struct {
		r     Range
		shard int
	}
	var all []owned
	for s, ranges := range a {
		for _, r := range ranges {
			all = append(all, owned{r, s})
		}
	}
	sort.Slice(all, func(i, j int) bool { return all[i].r.Off < all[j].r.Off })
	l := &Locator{
		offs:   make([]int, len(all)),
		ends:   make([]int, len(all)),
		shards: make([]int, len(all)),
	}
	for i, o := range all {
		l.offs[i] = o.r.Off
		l.ends[i] = o.r.Off + o.r.Len
		l.shards[i] = o.shard
	}
	return l
}

// Shard returns the shard owning flat index i, or -1 if no range covers it.
func (l *Locator) Shard(i int) int {
	if k := l.rangeOf(i); k >= 0 {
		return l.shards[k]
	}
	return -1
}

// rangeOf returns the position of the range covering flat index i, or -1.
func (l *Locator) rangeOf(i int) int {
	// Last range with Off <= i.
	k := sort.Search(len(l.offs), func(j int) bool { return l.offs[j] > i }) - 1
	if k < 0 || i >= l.ends[k] {
		return -1
	}
	return k
}

// Runs cuts an ascending index list into the runs idx[lo:hi] that one range
// holds and hands each to fn with the range's shard, in order, skipping
// indices no range covers: a sparse vector's split among the shards in
// O(ranges · log len(idx)) lookups, whatever its length.
func (l *Locator) Runs(idx []int32, fn func(shard, lo, hi int)) {
	for lo := 0; lo < len(idx); {
		k := l.rangeOf(int(idx[lo]))
		if k < 0 {
			lo++
			continue
		}
		end, rest := l.ends[k], idx[lo:]
		hi := lo + sort.Search(len(rest), func(j int) bool { return int(rest[j]) >= end })
		fn(l.shards[k], lo, hi)
		lo = hi
	}
}

// Global is the PS-side global parameter state. Shard processes own
// disjoint ranges, so they may update concurrently (in simulated time)
// without coordination. In cost-only mode Params is nil and all math
// methods are no-ops — only timing is simulated.
type Global struct {
	Params []float32
	Opt    *opt.SGD
}

// NewGlobal creates real global state whose parameters are init: the
// caller hands the vector over and keeps no other use of it.
func NewGlobal(init []float32, momentum, weightDecay float32) *Global {
	return &Global{Params: init, Opt: opt.NewSGD(len(init), momentum, weightDecay)}
}

// NewCostOnlyGlobal creates state that tracks no actual parameters.
func NewCostOnlyGlobal() *Global { return &Global{} }

// MathOn reports whether real parameter math is enabled.
func (g *Global) MathOn() bool { return g.Params != nil }

// ApplyGrad applies an SGD step with the given gradient restricted to the
// shard's ranges. grad may be nil in cost-only mode. scale pre-multiplies
// the gradient (e.g. 1/N for an averaged BSP aggregate) inside the step:
// the caller's vector is read, never changed or copied.
func (g *Global) ApplyGrad(ranges []Range, gradVec []float32, scale, lr float32) {
	if !g.MathOn() || gradVec == nil {
		return
	}
	for _, r := range ranges {
		g.Opt.StepAt(g.Params[r.Off:r.Off+r.Len], gradVec[r.Off:r.Off+r.Len], scale, lr, r.Off)
	}
}

// AddDelta adds a worker-computed update (delta) into the shard's ranges —
// the Petuum-style SSP aggregation where the PS is an adder and the
// optimizer lives at the workers. delta is full-length; nil is a no-op.
func (g *Global) AddDelta(ranges []Range, delta []float32) {
	if !g.MathOn() || delta == nil {
		return
	}
	for _, r := range ranges {
		dst := g.Params[r.Off : r.Off+r.Len]
		src := delta[r.Off : r.Off+r.Len]
		for i, v := range src {
			dst[i] += v
		}
	}
}

// ApplySparse applies a DGC sparse update: a plain (momentum-free) SGD step
// on the transmitted coordinates, as DGC prescribes (momentum lives in the
// worker-side compressor).
func (g *Global) ApplySparse(idx []int32, val []float32, scale, lr float32) {
	if !g.MathOn() || idx == nil {
		return
	}
	for j, i := range idx {
		g.Params[i] -= lr * scale * val[j]
	}
}

// ElasticUpdate performs EASGD's symmetric elastic move on the shard's
// ranges: x̃ += α(xᵢ − x̃) and xᵢ ← xᵢ − α(xᵢ − x̃) (evaluated with the old
// x̃). workerParams is updated in place and is what the PS sends back.
func (g *Global) ElasticUpdate(ranges []Range, workerParams []float32, alpha float32) {
	if !g.MathOn() || workerParams == nil {
		return
	}
	for _, r := range ranges {
		for i := r.Off; i < r.Off+r.Len; i++ {
			diff := alpha * (workerParams[i] - g.Params[i])
			g.Params[i] += diff
			workerParams[i] -= diff
		}
	}
}

// Snapshot copies the shard's ranges of the global parameters into dst
// (full-length). No-op in cost-only mode.
func (g *Global) Snapshot(ranges []Range, dst []float32) {
	if !g.MathOn() || dst == nil {
		return
	}
	for _, r := range ranges {
		copy(dst[r.Off:r.Off+r.Len], g.Params[r.Off:r.Off+r.Len])
	}
}
