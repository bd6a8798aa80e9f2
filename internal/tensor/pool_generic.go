//go:build !amd64

package tensor

// Non-amd64 builds run the reference loops: hasAVX2 is false, so
// poolKernelLen is 0 and neither of these is reached.

func maxPoolAVX2(in, out, slot *float32, n, ow int) { panic("tensor: maxPoolAVX2 requires amd64") }

func maxPoolBackAVX2(dx, grad, slot *float32, n, ow int) {
	panic("tensor: maxPoolBackAVX2 requires amd64")
}
