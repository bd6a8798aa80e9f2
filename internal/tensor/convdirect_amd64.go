//go:build amd64

package tensor

// The AVX2 kernels behind Conv (convdirect_amd64.s), under the same
// gemmVector gate as the GEMM micro-kernels. All extents are in floats.

// convFwd8 folds k block [koff[0], koff[kc)) of the forward pass into the
// tile of 8 output channels × rows × 8·nv columns at y: lane i of a column
// group reads patch element p at x[row·xrow + col + i + koff[p]], channel r
// reads its weights at w[r·ldw + p] and writes y[r·ldy + row·yrow + col + i].
// flags says which block of the element this is (convFirstBlock, …).
//
//go:noescape
func convFwd8(x *float32, xrow int, koff *int32, kc int, w *float32, ldw int,
	y *float32, ldy, yrow int, bias *float32, rows, nv, flags int)

// convGradW8 adds one sample's terms into an 8 channel × 8 patch-element
// tile of weight-gradient accumulators, ct[r·ldct + j] += d[r·ldd + p] ·
// x[corner(p) + idx[j]], over positions p = row·cols + col in order, where
// corner(p) = row·xrow + col·xstep.
//
//go:noescape
func convGradW8(x *float32, xstep, xrow int, idx *int32, d *float32, ldd int,
	ct *float32, ldct int, rows, cols int)

// convGradX8 adds the input-gradient terms of 8·nv output positions of one
// row, all outC channels of them at d[oc·ldd + col], into the bordered
// gradient image at dst: tap t of tile T — weight wt[oc·ldwt + 8T + t] —
// goes to dst[col + doff[8T + t]], taps in table order.
//
//go:noescape
func convGradX8(d *float32, ldd, outC int, wt *float32, ldwt int, doff *int32, ntiles int,
	dst *float32, nv int)
