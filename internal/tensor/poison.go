//go:build poison

package tensor

// Built with -tags poison, every lender in the process poisons what it takes
// back from the start, so that the whole test suite and the paper artifacts
// run with a use after release showing in their bits.
func init() { PoisonReleased.Store(true) }
