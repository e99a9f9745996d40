package task

import (
	"testing"

	"hydra/internal/fheop"
)

func TestBuilderQueuesAndTags(t *testing.T) {
	b := NewBuilder(3, 8)
	b.Step("layer")
	h0 := b.Compute(0, fheop.Of(fheop.Rotation, 2), 18, "A")
	if h0 != (Handle{Card: 0, Index: 0}) {
		t.Fatalf("handle %v", h0)
	}
	recvs := b.Send(0, h0, []int{1, 2}, 123, "x")
	if len(recvs) != 2 || recvs[0] != 0 || recvs[1] != 0 {
		t.Fatalf("recv indices %v", recvs)
	}
	p := b.Build()
	st := p.Steps[0]
	if st.Comm[0][0].Kind != Send || len(st.Comm[0][0].Peers) != 2 {
		t.Fatalf("send entry %+v", st.Comm[0][0])
	}
	if st.Comm[1][0].Kind != Recv || st.Comm[1][0].Peers[0] != 0 {
		t.Fatalf("recv entry %+v", st.Comm[1][0])
	}
	if st.Comm[1][0].Tag != st.Comm[0][0].Tag || st.Comm[2][0].Tag != st.Comm[0][0].Tag {
		t.Fatal("broadcast tags should match")
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestImplicitStep(t *testing.T) {
	b := NewBuilder(1, 1)
	b.Compute(0, fheop.Of(fheop.HAdd, 1), 5, "A")
	p := b.Build()
	if len(p.Steps) != 1 || p.Steps[0].Name != "main" {
		t.Fatalf("implicit step missing: %+v", p.Steps)
	}
}

func TestSeqMonotone(t *testing.T) {
	b := NewBuilder(2, 2)
	b.Step("s")
	b.Compute(0, fheop.Of(fheop.HAdd, 1), 5, "A")
	b.Send(0, FromStart, []int{1}, 1, "x")
	b.Compute(1, fheop.Of(fheop.HAdd, 1), 5, "B")
	p := b.Build()
	st := p.Steps[0]
	if !(st.Compute[0][0].Seq() < st.Comm[0][0].Seq() &&
		st.Comm[0][0].Seq() < st.Comm[1][0].Seq() &&
		st.Comm[1][0].Seq() < st.Compute[1][0].Seq()) {
		t.Fatal("sequence numbers not monotone in creation order")
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	mk := func() *Program {
		b := NewBuilder(2, 2)
		b.Step("s")
		h := b.Compute(0, fheop.Of(fheop.HAdd, 1), 5, "A")
		b.Send(0, h, []int{1}, 1, "x")
		return b.Build()
	}
	// Orphan the receive by changing its tag.
	p := mk()
	p.Steps[0].Comm[1][0].Tag = 999
	if err := p.Validate(); err == nil {
		t.Fatal("expected tag mismatch error")
	}
	// Dangling SAC dependency.
	p = mk()
	p.Steps[0].Comm[0][0].WaitCompute = 7
	if err := p.Validate(); err == nil {
		t.Fatal("expected dangling SAC error")
	}
	// CAR pointing at a send.
	p = mk()
	p.Steps[0].Compute[0] = append(p.Steps[0].Compute[0], Compute{WaitRecv: 0, Limbs: 5})
	if err := p.Validate(); err == nil {
		t.Fatal("expected CAR-on-send error")
	}
}

func TestEnergyScaleDefaultsAndOverride(t *testing.T) {
	b := NewBuilder(1, 1)
	b.Step("s")
	b.Compute(0, fheop.Of(fheop.HAdd, 1), 5, "A")
	b.SetEnergyScale(0.5)
	b.Compute(0, fheop.Of(fheop.HAdd, 1), 5, "A")
	b.SetEnergyScale(0) // invalid resets to 1
	b.Compute(0, fheop.Of(fheop.HAdd, 1), 5, "A")
	q := b.Build().Steps[0].Compute[0]
	if q[0].EnergyScale != 1 || q[1].EnergyScale != 0.5 || q[2].EnergyScale != 1 {
		t.Fatalf("energy scales %v %v %v", q[0].EnergyScale, q[1].EnergyScale, q[2].EnergyScale)
	}
}

func TestTotalsAcrossSteps(t *testing.T) {
	b := NewBuilder(2, 2)
	b.Step("one")
	h := b.Compute(0, fheop.Of(fheop.Rotation, 3), 5, "A")
	b.Send(0, h, []int{1}, 10, "x")
	b.Step("two")
	b.Compute(1, fheop.Of(fheop.Rotation, 4), 5, "B")
	h2 := b.Compute(0, fheop.Of(fheop.PMult, 1), 5, "C")
	b.Send(0, h2, []int{1}, 5, "y")
	p := b.Build()
	ops := p.TotalOps()
	if ops.Get(fheop.Rotation) != 7 || ops.Get(fheop.PMult) != 1 {
		t.Fatalf("op totals %v", ops)
	}
	if p.TotalBytes() != 15 {
		t.Fatalf("byte total %g", p.TotalBytes())
	}
}
