//go:build !amd64

package tensor

// Non-amd64 builds run Conv's reference loops: gemmVector is false, so none
// of these is reached.

func convFwd8(x *float32, xrow int, koff *int32, kc int, w *float32, ldw int,
	y *float32, ldy, yrow int, bias *float32, rows, nv, flags int) {
	panic("tensor: convFwd8 requires amd64")
}

func convGradW8(x *float32, xstep, xrow int, idx *int32, d *float32, ldd int,
	ct *float32, ldct int, rows, cols int) {
	panic("tensor: convGradW8 requires amd64")
}

func convGradX8(d *float32, ldd, outC int, wt *float32, ldwt int, doff *int32, ntiles int,
	dst *float32, nv int) {
	panic("tensor: convGradX8 requires amd64")
}
