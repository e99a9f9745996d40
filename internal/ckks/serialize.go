package ckks

import (
	"encoding/binary"
	"fmt"
	"math"

	"hydra/internal/ring"
)

// Wire format of ciphertexts — the payload the paper's DTU moves between
// cards (a level-l ciphertext is 2·(l+1)·N·8 bytes of limb
// data plus a small header, matching hw.SchemeParams.CiphertextBytes).

var ctMagic = [4]byte{'H', 'C', 'T', '1'}

// MarshalCiphertext encodes ct for transfer.
func MarshalCiphertext(ct *Ciphertext) []byte {
	buf := make([]byte, 0, 32+2*(ct.Level()+1)*len(ct.C0.Coeffs[0])*8)
	buf = append(buf, ctMagic[:]...)
	buf = appendHeader(buf, ct.C0, ct.Scale)
	buf = appendPoly(buf, ct.C0)
	buf = appendPoly(buf, ct.C1)
	return buf
}

// UnmarshalCiphertext decodes a ciphertext, validating its shape against the
// parameters.
func UnmarshalCiphertext(params *Parameters, data []byte) (*Ciphertext, error) {
	rest, level, isNTT, scale, err := readHeader(params, data, ctMagic)
	if err != nil {
		return nil, err
	}
	r := params.RingQP()
	c0 := r.NewPoly(level)
	c1 := r.NewPoly(level)
	if rest, err = readPoly(rest, r, c0, isNTT); err != nil {
		return nil, err
	}
	if rest, err = readPoly(rest, r, c1, isNTT); err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("ckks: %d trailing bytes in ciphertext", len(rest))
	}
	return &Ciphertext{C0: c0, C1: c1, Scale: scale}, nil
}

func appendHeader(buf []byte, p *ring.Poly, scale float64) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(p.Coeffs[0]))) // N
	buf = binary.LittleEndian.AppendUint32(buf, uint32(p.Level()))
	if p.IsNTT {
		buf = append(buf, 1)
	} else {
		buf = append(buf, 0)
	}
	buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(scale))
	return buf
}

func readHeader(params *Parameters, data []byte, magic [4]byte) (rest []byte, level int, isNTT bool, scale float64, err error) {
	if len(data) < 4+4+4+1+8 {
		return nil, 0, false, 0, fmt.Errorf("ckks: truncated header")
	}
	for i := range magic {
		if data[i] != magic[i] {
			return nil, 0, false, 0, fmt.Errorf("ckks: bad magic")
		}
	}
	off := 4
	n := int(binary.LittleEndian.Uint32(data[off:]))
	off += 4
	level = int(binary.LittleEndian.Uint32(data[off:]))
	off += 4
	isNTT = data[off] == 1
	off++
	scale = math.Float64frombits(binary.LittleEndian.Uint64(data[off:]))
	off += 8
	if n != params.N() {
		return nil, 0, false, 0, fmt.Errorf("ckks: degree %d does not match parameters (N=%d)", n, params.N())
	}
	if level < 0 || level > params.MaxLevel() {
		return nil, 0, false, 0, fmt.Errorf("ckks: level %d out of range", level)
	}
	if scale <= 0 || math.IsNaN(scale) || math.IsInf(scale, 0) {
		return nil, 0, false, 0, fmt.Errorf("ckks: invalid scale %v", scale)
	}
	return data[off:], level, isNTT, scale, nil
}

func appendPoly(buf []byte, p *ring.Poly) []byte {
	for _, limb := range p.Coeffs {
		for _, c := range limb {
			buf = binary.LittleEndian.AppendUint64(buf, c)
		}
	}
	return buf
}

// readPoly fills p from data and rejects any residue outside [0, q_i): every
// lazy kernel's overflow budget assumes canonical residues on entry, so an
// out-of-range limb from the wire must not reach the evaluator.
func readPoly(data []byte, r *ring.Ring, p *ring.Poly, isNTT bool) ([]byte, error) {
	need := len(p.Coeffs) * len(p.Coeffs[0]) * 8
	if len(data) < need {
		return nil, fmt.Errorf("ckks: truncated polynomial (%d of %d bytes)", len(data), need)
	}
	off := 0
	for i, limb := range p.Coeffs {
		q := r.Moduli[i]
		for j := range limb {
			c := binary.LittleEndian.Uint64(data[off:])
			if c >= q {
				return nil, fmt.Errorf("ckks: residue %d of limb %d is %d, not below its modulus %d", j, i, c, q)
			}
			limb[j] = c
			off += 8
		}
	}
	p.IsNTT = isNTT
	return data[need:], nil
}
