// Package isa defines the wire format of Hydra task programs. Section IV-D
// of the paper: "tasks are managed as instructions, allowing multiple tasks
// to be loaded into each FPGA's task queue at once" — the host-side
// scheduling software preloads data and task instructions onto each FPGA
// before accelerator startup, with data parallelism and dependences embedded
// in the instruction stream.
//
// The encoding is a compact varint-based binary format: a shared label
// table, then per step either a back-reference to the earlier step it repeats
// or, per card, the computation-queue and communication-queue entries with
// their SAC/CAR dependence fields.
package isa

import (
	"encoding/binary"
	"fmt"
	"math"

	"hydra/internal/fheop"
	"hydra/internal/task"
)

// Magic identifies an encoded Hydra program.
var Magic = [4]byte{'H', 'Y', 'D', 'R'}

// Version is the current format version. Version 2 writes a repeated step
// (one *task.Step appearing again in Program.Steps) as a back-reference to
// its first occurrence.
const Version = 2

type writer struct {
	buf []byte
}

func (w *writer) uvarint(v uint64) {
	w.buf = binary.AppendUvarint(w.buf, v)
}

func (w *writer) svarint(v int64) {
	w.buf = binary.AppendVarint(w.buf, v)
}

func (w *writer) bytes(b []byte) {
	w.uvarint(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

func (w *writer) f64(v float64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, math.Float64bits(v))
}

type reader struct {
	buf []byte
	off int
}

func (r *reader) uvarint() (uint64, error) {
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("isa: truncated uvarint at offset %d", r.off)
	}
	r.off += n
	return v, nil
}

func (r *reader) svarint() (int64, error) {
	v, n := binary.Varint(r.buf[r.off:])
	if n <= 0 {
		return 0, fmt.Errorf("isa: truncated varint at offset %d", r.off)
	}
	r.off += n
	return v, nil
}

func (r *reader) bytes() ([]byte, error) {
	n, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if uint64(len(r.buf)-r.off) < n {
		return nil, fmt.Errorf("isa: truncated byte string at offset %d", r.off)
	}
	b := r.buf[r.off : r.off+int(n)]
	r.off += int(n)
	return b, nil
}

func (r *reader) f64() (float64, error) {
	if len(r.buf)-r.off < 8 {
		return 0, fmt.Errorf("isa: truncated float at offset %d", r.off)
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.buf[r.off:]))
	r.off += 8
	// Both floats on the wire (EnergyScale, Bytes) are physical quantities;
	// NaN or ±Inf can only come from corruption.
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0, fmt.Errorf("isa: non-finite float at offset %d", r.off-8)
	}
	return v, nil
}

// Marshal encodes a validated program.
func Marshal(p *task.Program) ([]byte, error) {
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("isa: refusing to encode invalid program: %w", err)
	}
	return encode(p), nil
}

// encode writes the wire form of a program whose per-step queues cover its
// cards; it does not validate anything else.
func encode(p *task.Program) []byte {
	// Build the label table.
	labelIdx := map[string]uint64{}
	var labels []string
	intern := func(s string) uint64 {
		if i, ok := labelIdx[s]; ok {
			return i
		}
		i := uint64(len(labels))
		labelIdx[s] = i
		labels = append(labels, s)
		return i
	}
	first := make(map[*task.Step]int, len(p.Steps)) // a step's first index
	for i, st := range p.Steps {
		if _, ok := first[st]; ok {
			continue
		}
		first[st] = i
		intern(st.Name)
		for _, q := range st.Compute {
			for _, c := range q {
				intern(c.Label)
			}
		}
		for _, q := range st.Comm {
			for _, c := range q {
				intern(c.Label)
			}
		}
	}

	w := &writer{buf: make([]byte, 0, 1024)}
	w.buf = append(w.buf, Magic[:]...)
	w.buf = append(w.buf, Version)
	w.uvarint(uint64(p.Cards))
	w.uvarint(uint64(p.CardsPerServer))
	w.uvarint(uint64(len(labels)))
	for _, s := range labels {
		w.bytes([]byte(s))
	}
	w.uvarint(uint64(len(p.Steps)))
	for i, st := range p.Steps {
		// 0 opens a new step; k > 0 repeats step k-1.
		if j := first[st]; j < i {
			w.uvarint(uint64(j + 1))
			continue
		}
		w.uvarint(0)
		w.uvarint(labelIdx[st.Name])
		for card := 0; card < p.Cards; card++ {
			w.uvarint(uint64(len(st.Compute[card])))
			for _, c := range st.Compute[card] {
				for _, op := range fheop.Ops() {
					w.uvarint(uint64(c.Ops.Get(op)))
				}
				w.uvarint(uint64(c.Limbs))
				w.svarint(int64(c.WaitRecv))
				w.uvarint(labelIdx[c.Label])
				w.f64(c.EnergyScale)
			}
			w.uvarint(uint64(len(st.Comm[card])))
			for _, c := range st.Comm[card] {
				w.uvarint(uint64(c.Kind))
				w.uvarint(uint64(len(c.Peers)))
				for _, peer := range c.Peers {
					w.uvarint(uint64(peer))
				}
				w.f64(c.Bytes)
				w.svarint(int64(c.WaitCompute))
				w.uvarint(uint64(c.Tag))
				w.uvarint(labelIdx[c.Label])
			}
		}
	}
	return w.buf
}

// Unmarshal decodes an encoded program and re-validates it. A back-reference
// decodes to the earlier step's pointer, so the decoded program shares its
// repeated steps as the original does; one naming its own or a later step is
// rejected.
func Unmarshal(data []byte) (*task.Program, error) {
	r := &reader{buf: data}
	if len(data) < 5 || data[0] != Magic[0] || data[1] != Magic[1] || data[2] != Magic[2] || data[3] != Magic[3] {
		return nil, fmt.Errorf("isa: bad magic")
	}
	if data[4] != Version {
		return nil, fmt.Errorf("isa: unsupported version %d", data[4])
	}
	r.off = 5
	cards64, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	cps64, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if cards64 == 0 || cards64 > 1<<20 || cps64 == 0 {
		return nil, fmt.Errorf("isa: implausible card counts %d/%d", cards64, cps64)
	}
	nLabels, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	// Every encoded label costs at least one byte, so a count exceeding the
	// remaining input is corrupt — reject before allocating for it.
	if nLabels > uint64(len(r.buf)-r.off) {
		return nil, fmt.Errorf("isa: label count %d exceeds input size", nLabels)
	}
	labels := make([]string, nLabels)
	for i := range labels {
		b, err := r.bytes()
		if err != nil {
			return nil, err
		}
		labels[i] = string(b)
	}
	label := func(i uint64) (string, error) {
		if i >= uint64(len(labels)) {
			return "", fmt.Errorf("isa: label index %d out of range", i)
		}
		return labels[i], nil
	}

	nSteps, err := r.uvarint()
	if err != nil {
		return nil, err
	}
	if nSteps > uint64(len(r.buf)-r.off) {
		return nil, fmt.Errorf("isa: step count %d exceeds input size", nSteps)
	}
	p := &task.Program{Cards: int(cards64), CardsPerServer: int(cps64)}
	for s := uint64(0); s < nSteps; s++ {
		ref, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		if ref > 0 {
			if ref > s {
				return nil, fmt.Errorf("isa: step %d back-reference %d names no earlier step", s, ref)
			}
			p.Steps = append(p.Steps, p.Steps[int(ref)-1])
			continue
		}
		nameIdx, err := r.uvarint()
		if err != nil {
			return nil, err
		}
		name, err := label(nameIdx)
		if err != nil {
			return nil, err
		}
		// Each card contributes at least two count varints per step; refuse
		// to allocate per-card queues the input cannot possibly back.
		if len(r.buf)-r.off < 2*p.Cards {
			return nil, fmt.Errorf("isa: truncated step %d at offset %d", s, r.off)
		}
		st := &task.Step{
			Name:    name,
			Compute: make([][]task.Compute, p.Cards),
			Comm:    make([][]task.Comm, p.Cards),
		}
		for card := 0; card < p.Cards; card++ {
			nComp, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			for i := uint64(0); i < nComp; i++ {
				var c task.Compute
				for _, op := range fheop.Ops() {
					v, err := r.uvarint()
					if err != nil {
						return nil, err
					}
					c.Ops = c.Ops.Add(fheop.Of(op, int(v)))
				}
				limbs, err := r.uvarint()
				if err != nil {
					return nil, err
				}
				c.Limbs = int(limbs)
				wr, err := r.svarint()
				if err != nil {
					return nil, err
				}
				c.WaitRecv = int(wr)
				li, err := r.uvarint()
				if err != nil {
					return nil, err
				}
				if c.Label, err = label(li); err != nil {
					return nil, err
				}
				if c.EnergyScale, err = r.f64(); err != nil {
					return nil, err
				}
				st.Compute[card] = append(st.Compute[card], c)
			}
			nComm, err := r.uvarint()
			if err != nil {
				return nil, err
			}
			for i := uint64(0); i < nComm; i++ {
				var c task.Comm
				kind, err := r.uvarint()
				if err != nil {
					return nil, err
				}
				c.Kind = task.CommKind(kind)
				if c.Kind != task.Send && c.Kind != task.Recv {
					return nil, fmt.Errorf("isa: bad comm kind %d", kind)
				}
				nPeers, err := r.uvarint()
				if err != nil {
					return nil, err
				}
				if nPeers > cards64 {
					return nil, fmt.Errorf("isa: %d peers exceeds card count", nPeers)
				}
				for j := uint64(0); j < nPeers; j++ {
					peer, err := r.uvarint()
					if err != nil {
						return nil, err
					}
					c.Peers = append(c.Peers, int(peer))
				}
				if c.Bytes, err = r.f64(); err != nil {
					return nil, err
				}
				wc, err := r.svarint()
				if err != nil {
					return nil, err
				}
				c.WaitCompute = int(wc)
				tag, err := r.uvarint()
				if err != nil {
					return nil, err
				}
				c.Tag = int(tag)
				li, err := r.uvarint()
				if err != nil {
					return nil, err
				}
				if c.Label, err = label(li); err != nil {
					return nil, err
				}
				st.Comm[card] = append(st.Comm[card], c)
			}
		}
		p.Steps = append(p.Steps, st)
	}
	if r.off != len(data) {
		return nil, fmt.Errorf("isa: %d trailing bytes", len(data)-r.off)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("isa: decoded program invalid: %w", err)
	}
	return p, nil
}
