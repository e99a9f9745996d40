package main

import (
	"math/bits"
	"time"
)

// The reference kernel. Every timing the benchmark reports is read against a
// reading of this loop taken right before and right after it, because on this
// box the arithmetic of the repository slows and speeds by up to 1.5x in
// patches a minute long, and a loop of Harvey lazy butterflies over an
// L1-sized array slows and speeds with it (a dependent-division loop does not,
// so the cause is neither steal time nor clock).
//
// This file calls no repository code and must not be edited by a later
// change: a parent commit and its child are compared through it.

const (
	refWords  = 4096 // 32 KiB of uint64: two butterfly halves of 2048
	refPasses = 400
	refQ      = 0x1fffffffffe00001 // 61-bit NTT prime, so 4q fits a word
	refTwoQ   = 2 * refQ

	// refMS is the median reading of the kernel on this box when it is quiet
	// (2 vCPU Xeon 2.1 GHz, Go 1.24). A referenced time is
	//
	//	wall time * (refMS / mean(reading before, reading after)) ^ sensitivity
	//
	// so it reads as milliseconds on a quiet box. The constant cancels when
	// two commits are compared; it is printed with every result.
	refMS = 1.45
)

type refKernel struct {
	x     [refWords]uint64
	w, ws [8]uint64 // one twiddle and its Shoup companion per pass, cycled
	sink  uint64
}

func newRefKernel() *refKernel {
	r := &refKernel{}
	s := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 { // splitmix64: fixed inputs, not drawn from --seed
		s += 0x9e3779b97f4a7c15
		z := s
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		return z ^ (z >> 31)
	}
	for i := range r.x {
		r.x[i] = next() % refQ
	}
	for i := range r.w {
		r.w[i] = next() % refQ
		r.ws[i], _ = bits.Div64(r.w[i], 0, refQ)
	}
	return r
}

// read runs the kernel once and returns its wall time in milliseconds.
func (r *refKernel) read() float64 {
	const half = refWords / 2
	x := &r.x
	t0 := time.Now()
	for p := 0; p < refPasses; p++ {
		w, ws := r.w[p&7], r.ws[p&7]
		for j := 0; j < half; j++ {
			u, y := x[j], x[j+half]
			hi, _ := bits.Mul64(y, ws)
			t := y*w - hi*refQ // in [0, 2q)
			a := u + t
			if a >= refTwoQ {
				a -= refTwoQ
			}
			b := u + refTwoQ - t
			if b >= refTwoQ {
				b -= refTwoQ
			}
			x[j], x[j+half] = a, b
		}
	}
	d := time.Since(t0)
	r.sink ^= x[0] ^ x[half]
	return float64(d.Nanoseconds()) / 1e6
}
