// GEMM kernels: cache-blocked, register-tiled matrix multiplication with a
// deterministic goroutine fan-out over row panels of C and, on amd64 with
// AVX2, vector micro-kernels for 16-column bands plus one 8-column band for
// what they leave.
//
// All three variants (MatMul, MatMulTransA, MatMulTransB) share the same
// structure: a serial panel kernel computes a contiguous range of C rows,
// and a dispatcher either runs it once over [0, m) or splits the rows across
// goroutines. Because every goroutine writes a disjoint row panel and each C
// element accumulates its k terms in the same (ascending-p) order on every
// path, the result is byte-identical to the serial kernel for any
// parallelism level — simulation outputs do not depend on GOMAXPROCS. A
// panel is never cut shorter than gemmMinPanelRows: each panel packs all of
// B for itself, so thin panels multiply the packing, not the speed.
//
// The vector kernels (gemm_amd64.s) keep that contract: they multiply and
// add each lane with separate VMULPS/VADDPS instructions (never FMA, which
// the Go compiler also never emits for float32 expressions), accumulate each
// k block in registers starting from zero, and fold into C once per block —
// the exact rounding sequence of the scalar tiles. Columns are covered by
// 16-wide bands, then one 8-wide band when at least 8 remain (an output
// narrower than 16 columns, such as a conv layer with 8 channels, is that
// band alone); only the last < 8 columns run the scalar code, which performs
// the same per-element sequence, so AVX2 on/off is bit-identical too
// (test-enforced via gemmForceScalar).
//
// Skinny shapes — a dense layer at a small batch: a few activation rows
// against a weight matrix of megabytes — are bound by passes over the
// weights, not by FLOPs, and the blocked panels spend more time packing the
// weights than multiplying them. Three paths, chosen by operand shape alone,
// touch them once instead; each keeps the per-element rounding sequence (k
// blocks of gemmBlockK, ascending p, block accumulator from +0, one fold per
// block), so no bit depends on which path ran:
//
//   - A·Bᵀ with at most gemmSkinnyRows (8) rows of A swaps the operand
//     roles: the weight rows stream unpacked through the 8×8 / 1×8 kernels'
//     row operand, and the activation rows are the packed, zero-padded
//     8-lane operand (8 rows fill one YMM register exactly, which is where
//     the bound comes from). That computes Cᵀ; the epilogue transposes it
//     back while it adds bias and clamps. Up to 16 rows run as two such
//     groups: a second pass over the weights still costs less than the
//     blocked panel's scalar transposing pack of all of them (a 256×256
//     dense layer at batch 16).
//   - A·B over at most 8 rows hands the 16-wide kernels B's rows where they
//     lie (stride n) instead of copying each band into a pack: with two row
//     quads at most, a pack is read twice and not worth its write.
//   - Aᵀ·B with k ≤ gemmTransASmallK (16) — a weight gradient at batch ≤ 16 —
//     runs row-quad-outermost: each quad of C rows is zeroed just before its
//     k folds and stays in cache through them, so C goes to memory once
//     instead of k times. The bound keeps B (k rows) cache-resident while
//     every quad re-reads it; with thousands of rows (a conv's patch matrix)
//     the p-outermost order streams both operands once and wins.
//
// MatMulBias/MatMulBiasReLU fuse the A·Bᵀ layout's bias-add and ReLU
// epilogue into the panel: the epilogue runs once per C row after all k
// blocks have folded, in the same element order as a separate bias+ReLU
// pass, so fused and unfused results are bit-identical.
//
// Numeric note: unlike the earlier kernels, no zero-skip fast path exists —
// an A element of 0 still multiplies its B row, so NaN/Inf in either operand
// propagates into C (0·NaN = NaN). Silently zeroing those terms masked
// divergence in training runs.
package tensor

import (
	"fmt"
	"sync"
	"sync/atomic"

	"runtime"
)

const (
	// gemmBlockK is the k-panel depth: one block of B rows (gemmBlockK×n
	// floats) is swept repeatedly while it is still cache-resident.
	gemmBlockK = 240
	// gemmBlockN bounds the column width of the resident B panel so a
	// gemmBlockK×gemmBlockN slab (~240 KB) stays L2-resident even for wide
	// outputs (e.g. im2col matrices of early conv layers, n in the
	// thousands).
	gemmBlockN = 256
	// gemmParallelMinFLOPs is the 2·m·k·n product below which dispatch runs
	// serial: goroutine spawn (~µs and a closure allocation each) would
	// dominate tiny multiplies, and the training hot path at mini-model scale
	// must stay allocation-free.
	gemmParallelMinFLOPs = 1 << 19
	// gemmMinPanelRows is the shortest row panel the fan-out cuts. Every
	// panel packs all of B for its own rows, so at 4 rows per panel the
	// packing is the whole cost; 16 rows are four row quads per packed band.
	gemmMinPanelRows = 16
	// gemmSkinnyRows is the row count up to which A·Bᵀ and A·B take the
	// pack-free skinny paths: the rows of one 8-lane vector.
	gemmSkinnyRows = 8
	// gemmSkinnyCols is how many C columns the skinny A·Bᵀ path finishes
	// before it transposes them back: its Cᵀ scratch (×8 lanes, 16 KB) lives
	// on the stack and in L1.
	gemmSkinnyCols = 512
	// gemmTransASmallK is the k up to which Aᵀ·B runs row-quad-outermost:
	// B's k rows (k·n floats) must stay cache-resident across the quads.
	gemmTransASmallK = 16
)

// Epilogue selector for the A·Bᵀ panel: nothing, +bias, or relu(·+bias).
const (
	epNone = iota
	epBias
	epBiasReLU
)

// gemmForceProcs overrides the parallel width when positive (tests force
// serial vs parallel execution to prove byte-identical results).
var gemmForceProcs atomic.Int32

// gemmForceScalar disables the AVX2 micro-kernels when set (tests force the
// scalar reference path to prove the vector kernels are bit-identical).
var gemmForceScalar atomic.Bool

// gemmVector reports whether the packed AVX2 micro-kernels should run.
func gemmVector() bool {
	return hasAVX2 && !gemmForceScalar.Load()
}

func gemmProcs() int {
	if p := gemmForceProcs.Load(); p > 0 {
		return int(p)
	}
	return runtime.GOMAXPROCS(0)
}

// gemmWidth is how many goroutines an m-row multiply of the given FLOP count
// fans out over: 1 (the calling goroutine) below the FLOP cutoff, and never
// so many that a panel would be shorter than gemmMinPanelRows. The wrappers
// check this BEFORE constructing the dispatch closure: the closure is
// captured by spawned goroutines and therefore heap-allocates, which the
// serial hot path (steady-state training steps) must not pay.
func gemmWidth(m, flops int) int {
	procs := gemmProcs()
	if w := m / gemmMinPanelRows; procs > w {
		procs = w
	}
	if procs <= 1 || flops < gemmParallelMinFLOPs {
		return 1
	}
	return procs
}

// gemmDispatch runs panel(i0, i1) concurrently over procs disjoint row ranges
// covering [0, m). panel must be safe to run concurrently on disjoint ranges
// and must produce row results that do not depend on the range boundaries.
func gemmDispatch(m, procs int, panel func(i0, i1 int)) {
	chunk := (m + procs - 1) / procs
	var wg sync.WaitGroup
	for i0 := 0; i0 < m; i0 += chunk {
		i1 := i0 + chunk
		if i1 > m {
			i1 = m
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			panel(lo, hi)
		}(i0, i1)
	}
	wg.Wait()
}

// MatMul computes C = A·B where A is (m×k) and B is (k×n), all row-major.
// C must be (m×n) and is overwritten.
func MatMul(a, b, c *Tensor) {
	m, k := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 || c.Shape[0] != m || c.Shape[1] != n {
		panic(fmt.Sprintf("tensor: matmul shape mismatch %v x %v -> %v", a.Shape, b.Shape, c.Shape))
	}
	ad, bd, cd := a.Data, b.Data, c.Data
	procs := gemmWidth(m, 2*m*k*n)
	if procs == 1 {
		matMulPanel(ad, bd, cd, 0, m, k, n)
		return
	}
	gemmDispatch(m, procs, func(i0, i1 int) {
		matMulPanel(ad, bd, cd, i0, i1, k, n)
	})
}

// matMulPanel computes rows [i0, i1) of C = A·B. The k loop is blocked so a
// gemmBlockK×n slab of B is reused while cache-resident. Within a block,
// full 16-wide column bands are packed into a contiguous tile (so the
// micro-kernel streams B at stride 16 regardless of n) and handed to the
// AVX2 4×16 / 1×16 kernels, 8 further columns to the 8×8 / 1×8 kernels; the
// scalar 2×4 register tile covers the last < 8 columns and non-AVX2 hosts.
// A skinny panel (at most gemmSkinnyRows rows) skips the 16-wide pack and
// points the kernels at B itself, stride n.
//
// Determinism: every C element, on every path (vector band or scalar tile,
// any unroll), experiences the identical rounding sequence — a block-local
// accumulator summing its k terms in ascending-p order, folded into C once
// per block. Results therefore do not depend on the panel split, the unroll
// path, or AVX2 availability.
func matMulPanel(ad, bd, cd []float32, i0, i1, k, n int) {
	for i := i0; i < i1; i++ {
		ci := cd[i*n : i*n+n]
		for x := range ci {
			ci[x] = 0
		}
	}
	vec := gemmVector()
	skinny := i1-i0 <= gemmSkinnyRows
	var pack [gemmBlockK * 16]float32
	for p0 := 0; p0 < k; p0 += gemmBlockK {
		pMax := p0 + gemmBlockK
		if pMax > k {
			pMax = k
		}
		kc := pMax - p0
		for j0 := 0; j0 < n; j0 += gemmBlockN {
			jMax := j0 + gemmBlockN
			if jMax > n {
				jMax = n
			}
			j := j0
			if vec {
				for ; j+16 <= jMax; j += 16 {
					band, ldb := &pack[0], 16
					if skinny {
						band, ldb = &bd[p0*n+j], n
					} else {
						for p := 0; p < kc; p++ {
							base := (p0+p)*n + j
							copy(pack[p*16:p*16+16], bd[base:base+16])
						}
					}
					i := i0
					for ; i+4 <= i1; i += 4 {
						gemmMicro4x16(&ad[i*k+p0], k, band, ldb, &cd[i*n+j], n, kc)
					}
					for ; i < i1; i++ {
						gemmMicro1x16(&ad[i*k+p0], band, ldb, &cd[i*n+j], kc)
					}
				}
				if j+8 <= jMax {
					for p := 0; p < kc; p++ {
						base := (p0+p)*n + j
						copy(pack[p*8:p*8+8], bd[base:base+8])
					}
					gemmBand8(ad, pack[:], cd, i0, i1, k, n, p0, j, kc)
					j += 8
				}
			}
			if j < jMax {
				matMulScalarTile(ad, bd, cd, i0, i1, k, n, p0, pMax, j, jMax)
			}
		}
	}
}

// gemmBand8 folds one k block of one packed 8-column band into rows
// [i0, i1) of C: C[i][j:j+8] += A[i][p0:p0+kc]·pack, eight rows at a time.
func gemmBand8(ad, pack, cd []float32, i0, i1, k, n, p0, j, kc int) {
	i := i0
	for ; i+8 <= i1; i += 8 {
		gemmMicro8x8(&ad[i*k+p0], k, &pack[0], &cd[i*n+j], n, kc)
	}
	for ; i < i1; i++ {
		gemmMicro1x8(&ad[i*k+p0], &pack[0], &cd[i*n+j], kc)
	}
}

// matMulScalarTile is the scalar reference inner kernel for C = A·B over
// rows [i0, i1), columns [j0, jMax), k block [p0, pMax): a 2×4 register tile
// of C accumulates entirely in registers — the inner loop issues 8
// multiply-adds against 6 loads and no stores, instead of a load+store per
// multiply-add. (A 4×4 tile needs more accumulators than amd64 has XMM
// registers; the spills cost more than the extra reuse wins.)
func matMulScalarTile(ad, bd, cd []float32, i0, i1, k, n, p0, pMax, j0, jMax int) {
	i := i0
	for ; i+1 < i1; i += 2 {
		a0 := ad[i*k : i*k+k]
		a1 := ad[(i+1)*k : (i+2)*k]
		j := j0
		for ; j+3 < jMax; j += 4 {
			var c00, c01, c02, c03 float32
			var c10, c11, c12, c13 float32
			for p := p0; p < pMax; p++ {
				bp := bd[p*n+j : p*n+j+4]
				b0, b1, b2, b3 := bp[0], bp[1], bp[2], bp[3]
				av := a0[p]
				c00 += av * b0
				c01 += av * b1
				c02 += av * b2
				c03 += av * b3
				av = a1[p]
				c10 += av * b0
				c11 += av * b1
				c12 += av * b2
				c13 += av * b3
			}
			c0 := cd[i*n+j : i*n+j+4]
			c0[0] += c00
			c0[1] += c01
			c0[2] += c02
			c0[3] += c03
			c1 := cd[(i+1)*n+j : (i+1)*n+j+4]
			c1[0] += c10
			c1[1] += c11
			c1[2] += c12
			c1[3] += c13
		}
		for ; j < jMax; j++ {
			var s0, s1 float32
			for p := p0; p < pMax; p++ {
				bv := bd[p*n+j]
				s0 += a0[p] * bv
				s1 += a1[p] * bv
			}
			cd[i*n+j] += s0
			cd[(i+1)*n+j] += s1
		}
	}
	for ; i < i1; i++ {
		ai := ad[i*k : i*k+k]
		j := j0
		for ; j+3 < jMax; j += 4 {
			var s0, s1, s2, s3 float32
			for p := p0; p < pMax; p++ {
				bp := bd[p*n+j : p*n+j+4]
				av := ai[p]
				s0 += av * bp[0]
				s1 += av * bp[1]
				s2 += av * bp[2]
				s3 += av * bp[3]
			}
			ci := cd[i*n+j : i*n+j+4]
			ci[0] += s0
			ci[1] += s1
			ci[2] += s2
			ci[3] += s3
		}
		for ; j < jMax; j++ {
			var s float32
			for p := p0; p < pMax; p++ {
				s += ai[p] * bd[p*n+j]
			}
			cd[i*n+j] += s
		}
	}
}

// MatMulTransA computes C = Aᵀ·B where A is (k×m), B is (k×n), C is (m×n).
func MatMulTransA(a, b, c *Tensor) {
	k, m := a.Shape[0], a.Shape[1]
	k2, n := b.Shape[0], b.Shape[1]
	if k != k2 || c.Shape[0] != m || c.Shape[1] != n {
		panic(fmt.Sprintf("tensor: matmulTransA shape mismatch %v x %v -> %v", a.Shape, b.Shape, c.Shape))
	}
	ad, bd, cd := a.Data, b.Data, c.Data
	procs := gemmWidth(m, 2*m*k*n)
	if procs == 1 {
		matMulTransAPanel(ad, bd, cd, 0, m, k, m, n)
		return
	}
	gemmDispatch(m, procs, func(i0, i1 int) {
		matMulTransAPanel(ad, bd, cd, i0, i1, k, m, n)
	})
}

// matMulTransAPanel computes C rows [i0, i1) of C = Aᵀ·B. Four C rows share
// each loaded B row — via the AVX2 saxpy kernel for the 8-aligned column
// prefix, scalar for the tail. Both paths fold a[p][i]·b[p][j] into C once
// per p step, in ascending-p order, so vector on/off and the quad grouping
// don't change a single bit — and neither does the size of the row block the
// p loop runs over. With many k rows that block is the whole panel: p is
// outermost, both A and B rows stream contiguously, and the panel is the
// cache block (its C rows are revisited every p step). With k ≤
// gemmTransASmallK it is one row quad: the quad is zeroed, takes its k folds
// while it sits in cache, and is not touched again, so a C of megabytes (a
// dense layer's dW at a small batch) is written once instead of read and
// written k times.
func matMulTransAPanel(ad, bd, cd []float32, i0, i1, k, m, n int) {
	nv := 0
	if gemmVector() {
		nv = n &^ 7
	}
	block := i1 - i0
	if k <= gemmTransASmallK {
		block = 4
	}
	for r0 := i0; r0 < i1; r0 += block {
		r1 := r0 + block
		if r1 > i1 {
			r1 = i1
		}
		clear(cd[r0*n : r1*n])
		for p := 0; p < k; p++ {
			ap := ad[p*m : p*m+m]
			bp := bd[p*n : p*n+n]
			i := r0
			for ; i+3 < r1; i += 4 {
				if nv > 0 {
					gemmSaxpy4(&ap[i], &bp[0], &cd[i*n], n, nv)
				}
				if nv < n {
					av0, av1, av2, av3 := ap[i], ap[i+1], ap[i+2], ap[i+3]
					c0 := cd[i*n : i*n+n]
					c1 := cd[(i+1)*n : (i+2)*n]
					c2 := cd[(i+2)*n : (i+3)*n]
					c3 := cd[(i+3)*n : (i+4)*n]
					for j := nv; j < n; j++ {
						bv := bp[j]
						c0[j] += av0 * bv
						c1[j] += av1 * bv
						c2[j] += av2 * bv
						c3[j] += av3 * bv
					}
				}
			}
			for ; i < r1; i++ {
				av := ap[i]
				ci := cd[i*n : i*n+n]
				for j, bv := range bp {
					ci[j] += av * bv
				}
			}
		}
	}
}

// MatMulTransB computes C = A·Bᵀ where A is (m×k), B is (n×k), C is (m×n).
func MatMulTransB(a, b, c *Tensor) {
	matMulTransBEp(a, b, c, nil, epNone)
}

// MatMulBias computes C = A·Bᵀ + bias where A is (m×k), B is (n×k), C is
// (m×n) and bias (length n) is broadcast across rows — the layout of a
// Dense/Conv2D forward pass. Bit-identical to MatMulTransB followed by a
// separate bias add.
func MatMulBias(a, b, c *Tensor, bias []float32) {
	matMulTransBEp(a, b, c, bias, epBias)
}

// MatMulBiasReLU computes C = relu(A·Bᵀ + bias): the fully fused
// Dense/Conv2D forward epilogue. Elements that are not > 0 after the bias
// add (including NaN) become 0, exactly like the standalone ReLU layer, so
// the fused result is bit-identical to MatMulTransB + bias + ReLU.
func MatMulBiasReLU(a, b, c *Tensor, bias []float32) {
	matMulTransBEp(a, b, c, bias, epBiasReLU)
}

func matMulTransBEp(a, b, c *Tensor, bias []float32, ep int) {
	m, k := a.Shape[0], a.Shape[1]
	n, k2 := b.Shape[0], b.Shape[1]
	if k != k2 || c.Shape[0] != m || c.Shape[1] != n {
		panic(fmt.Sprintf("tensor: matmulTransB shape mismatch %v x %v -> %v", a.Shape, b.Shape, c.Shape))
	}
	if ep != epNone && len(bias) != n {
		panic(fmt.Sprintf("tensor: matmul bias length %d != %d columns", len(bias), n))
	}
	ad, bd, cd := a.Data, b.Data, c.Data
	if m <= 2*gemmSkinnyRows && gemmVector() {
		for r0 := 0; r0 < m; r0 += gemmSkinnyRows {
			r1 := min(r0+gemmSkinnyRows, m)
			matMulTransBSkinny(ad[r0*k:r1*k], bd, cd[r0*n:r1*n], r1-r0, k, n, bias, ep)
		}
		return
	}
	procs := gemmWidth(m, 2*m*k*n)
	if procs == 1 {
		matMulTransBPanel(ad, bd, cd, 0, m, k, n, bias, ep)
		return
	}
	gemmDispatch(m, procs, func(i0, i1 int) {
		matMulTransBPanel(ad, bd, cd, i0, i1, k, n, bias, ep)
	})
}

// matMulTransBPanel computes C rows [i0, i1) of C = A·Bᵀ, then applies the
// requested epilogue. The k loop is blocked like matMulPanel's; within a
// block, 16 B rows at a time — then 8, when at least 8 remain — are packed
// transposed (pack[p][t] = B[j+t][p]) so the same micro-kernels used by
// MatMul consume them, and the scalar quad-dot tile covers the last < 8
// columns and non-AVX2 hosts.
//
// Determinism: each C element accumulates its k terms ascending-p with a
// block-local accumulator folded once per block (vector and scalar paths
// identical), and the epilogue visits each row's elements in ascending-j
// order after all blocks — independent of panel split, band grouping, and
// AVX2 availability.
func matMulTransBPanel(ad, bd, cd []float32, i0, i1, k, n int, bias []float32, ep int) {
	for i := i0; i < i1; i++ {
		ci := cd[i*n : i*n+n]
		for x := range ci {
			ci[x] = 0
		}
	}
	vec := gemmVector()
	var pack [gemmBlockK * 16]float32
	for p0 := 0; p0 < k; p0 += gemmBlockK {
		pMax := p0 + gemmBlockK
		if pMax > k {
			pMax = k
		}
		kc := pMax - p0
		j := 0
		if vec {
			for ; j+16 <= n; j += 16 {
				for t := 0; t < 16; t++ {
					row := bd[(j+t)*k+p0 : (j+t)*k+pMax]
					for p, v := range row {
						pack[p*16+t] = v
					}
				}
				i := i0
				for ; i+4 <= i1; i += 4 {
					gemmMicro4x16(&ad[i*k+p0], k, &pack[0], 16, &cd[i*n+j], n, kc)
				}
				for ; i < i1; i++ {
					gemmMicro1x16(&ad[i*k+p0], &pack[0], 16, &cd[i*n+j], kc)
				}
			}
			if j+8 <= n {
				for t := 0; t < 8; t++ {
					row := bd[(j+t)*k+p0 : (j+t)*k+pMax]
					for p, v := range row {
						pack[p*8+t] = v
					}
				}
				gemmBand8(ad, pack[:], cd, i0, i1, k, n, p0, j, kc)
				j += 8
			}
		}
		if j < n {
			matMulTransBScalarTile(ad, bd, cd, i0, i1, k, n, p0, pMax, j)
		}
	}
	if ep == epNone {
		return
	}
	relu := ep == epBiasReLU
	for i := i0; i < i1; i++ {
		ci := cd[i*n : i*n+n]
		for j, bv := range bias {
			v := ci[j] + bv
			if relu && !(v > 0) {
				v = 0
			}
			ci[j] = v
		}
	}
}

// matMulTransBSkinny computes C = A·Bᵀ with the epilogue for m ≤
// gemmSkinnyRows rows of A, operand roles swapped: it forms Cᵀ = B·Aᵀ, so
// the n rows of B — the weights, the operand that is megabytes — stream
// through the 8×8 / 1×8 kernels' unpacked row operand exactly once, and the
// m rows of A are what gets packed: kc×8 floats per k block, lane t holding
// A's row t and lanes m…7 zero (their products land in Cᵀ columns nobody
// reads). Cᵀ for gemmSkinnyCols columns of C at a time accumulates in ct
// across the k blocks; the epilogue reads it back transposed.
//
// Determinism: C[t][j] still sums its k terms ascending-p into a block
// accumulator from +0 that folds into a +0-initialised cell once per block.
// Only the product's operand order differs from matMulTransBPanel's
// (b·a for a·b), which IEEE multiplication cannot tell apart — short of
// which NaN payload survives when both are NaN, and no path defines that.
func matMulTransBSkinny(ad, bd, cd []float32, m, k, n int, bias []float32, ep int) {
	var apack [gemmBlockK * 8]float32
	var ct [gemmSkinnyCols * 8]float32
	relu := ep == epBiasReLU
	for j0 := 0; j0 < n; j0 += gemmSkinnyCols {
		j1 := j0 + gemmSkinnyCols
		if j1 > n {
			j1 = n
		}
		clear(ct[:(j1-j0)*8])
		for p0 := 0; p0 < k; p0 += gemmBlockK {
			pMax := p0 + gemmBlockK
			if pMax > k {
				pMax = k
			}
			kc := pMax - p0
			for t := 0; t < m; t++ {
				for p, v := range ad[t*k+p0 : t*k+pMax] {
					apack[p*8+t] = v
				}
			}
			j := j0
			for ; j+8 <= j1; j += 8 {
				gemmMicro8x8(&bd[j*k+p0], k, &apack[0], &ct[(j-j0)*8], 8, kc)
			}
			for ; j < j1; j++ {
				gemmMicro1x8(&bd[j*k+p0], &apack[0], &ct[(j-j0)*8], kc)
			}
		}
		for t := 0; t < m; t++ {
			ci := cd[t*n+j0 : t*n+j1]
			for j := range ci {
				v := ct[j*8+t]
				if ep != epNone {
					v += bias[j0+j]
					if relu && !(v > 0) {
						v = 0
					}
				}
				ci[j] = v
			}
		}
	}
}

// matMulTransBScalarTile is the scalar reference kernel for C += A·Bᵀ over
// rows [i0, i1), columns [j0, n), k block [p0, pMax): dot products of A and
// B row segments, four B rows at a time so each A segment is streamed once
// per quad instead of once per output.
func matMulTransBScalarTile(ad, bd, cd []float32, i0, i1, k, n, p0, pMax, j0 int) {
	for i := i0; i < i1; i++ {
		ai := ad[i*k+p0 : i*k+pMax]
		ci := cd[i*n : i*n+n]
		j := j0
		for ; j+3 < n; j += 4 {
			b0 := bd[j*k+p0 : j*k+pMax]
			b1 := bd[(j+1)*k+p0 : (j+1)*k+pMax]
			b2 := bd[(j+2)*k+p0 : (j+2)*k+pMax]
			b3 := bd[(j+3)*k+p0 : (j+3)*k+pMax]
			var s0, s1, s2, s3 float32
			for p, av := range ai {
				s0 += av * b0[p]
				s1 += av * b1[p]
				s2 += av * b2[p]
				s3 += av * b3[p]
			}
			ci[j] += s0
			ci[j+1] += s1
			ci[j+2] += s2
			ci[j+3] += s3
		}
		for ; j < n; j++ {
			bj := bd[j*k+p0 : j*k+pMax]
			var s float32
			for p, av := range ai {
				s += av * bj[p]
			}
			ci[j] += s
		}
	}
}
