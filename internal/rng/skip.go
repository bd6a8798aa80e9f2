package rng

import "math/bits"

// xoshiro256's state map T is linear over GF(2), so n steps are T^n, and
// T^n = j(T) for j = x^n mod p, p the characteristic polynomial of T
// (Cayley–Hamilton). Skip computes j by square-and-multiply in GF(2)[x]/p
// and applies it as the published jump() does: Σ of T^i·s over j's set
// coefficients i, 256 steps. jump() itself is n = 2^128.

// poly is a polynomial over GF(2) of degree below 256: bit i%64 of word
// i/64 is the coefficient of x^i.
type poly [4]uint64

// charPoly is the characteristic polynomial of T less its x^256 term, so
// x^256 ≡ charPoly mod p. Found by Berlekamp–Massey on one state bit's
// sequence; TestSkipJumpConstants checks it against the published jump
// polynomials.
var charPoly = poly{0x9d116f2bb0f0f001, 0x0280002bcefd1a5e, 0x04b4edcf26259f85, 0x0003c03c3f3ecb19}

// highPowers[i] is x^(256+i) mod p: the reduction of a product's upper half.
var highPowers = func() (t [256]poly) {
	t[0] = charPoly
	for i := 1; i < len(t); i++ {
		t[i] = t[i-1].timesX()
	}
	return t
}()

// timesX returns p·x mod charPoly.
func (p poly) timesX() poly {
	top := p[3] >> 63
	p[3] = p[3]<<1 | p[2]>>63
	p[2] = p[2]<<1 | p[1]>>63
	p[1] = p[1]<<1 | p[0]>>63
	p[0] <<= 1
	if top != 0 {
		for i := range p {
			p[i] ^= charPoly[i]
		}
	}
	return p
}

// spread moves bit i of x to bit 2i: squaring in GF(2)[x] is exactly that.
func spread(x uint32) uint64 {
	v := uint64(x)
	v = (v | v<<16) & 0x0000ffff0000ffff
	v = (v | v<<8) & 0x00ff00ff00ff00ff
	v = (v | v<<4) & 0x0f0f0f0f0f0f0f0f
	v = (v | v<<2) & 0x3333333333333333
	return (v | v<<1) & 0x5555555555555555
}

// squared returns p² mod charPoly.
func (p poly) squared() poly {
	var lo, hi poly
	for w := range 2 {
		lo[2*w], lo[2*w+1] = spread(uint32(p[w])), spread(uint32(p[w]>>32))
		hi[2*w], hi[2*w+1] = spread(uint32(p[w+2])), spread(uint32(p[w+2]>>32))
	}
	for w, h := range hi {
		for ; h != 0; h &= h - 1 {
			t := &highPowers[64*w+bits.TrailingZeros64(h)]
			lo[0], lo[1], lo[2], lo[3] = lo[0]^t[0], lo[1]^t[1], lo[2]^t[2], lo[3]^t[3]
		}
	}
	return lo
}

// Skip advances the generator by n outputs: it ends exactly where n calls
// of Uint64 would leave it, in about log₂ n polynomial squarings and 256
// steps.
func (r *RNG) Skip(n uint64) {
	j := poly{1}
	for b := bits.Len64(n) - 1; b >= 0; b-- {
		if j = j.squared(); n>>b&1 != 0 {
			j = j.timesX()
		}
	}
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	var a [4]uint64
	for _, w := range j {
		for b := range 64 {
			if w>>b&1 != 0 {
				a[0], a[1], a[2], a[3] = a[0]^s0, a[1]^s1, a[2]^s2, a[3]^s3
			}
			_, s0, s1, s2, s3 = next(s0, s1, s2, s3)
		}
	}
	r.s = a
}
