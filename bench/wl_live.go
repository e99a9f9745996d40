package main

import (
	"context"
	"fmt"
	"time"

	"hydra/internal/ckks"
	"hydra/internal/cluster"
	"hydra/internal/fhir"
	"hydra/internal/hw"
	"hydra/internal/serve"
)

// liveRuns is how many times each of the three live figures runs, one at a
// time.
const liveRuns = 10

// live is the cluster / serve-live section of a traced he-rot run: the same
// BSGS builder at a smaller split, lowered by fhir.LowerCluster onto one and
// two goroutine cards, then sent as jobs of one closed-loop client through
// serve.New and the ClusterBackend. No gated workload crosses this path.
func (w *heProgram) live(b *bench) error {
	e := w.env
	params := e.params
	src, err := buildBSGS(params.Slots(), w.bsgsLive, w.bsgsLive, b.rng)
	if err != nil {
		return err
	}
	prog, err := fhir.Compile(src, fhir.Options{Levels: w.levels})
	if err != nil {
		return err
	}
	rots, conj := prog.Rotations()
	eval := ckks.NewEvaluator(params, e.rlk, e.kg.GenRotationKeys(e.sk, rots, conj))

	vals := drawSlots(b.rng, params.Slots(), w.amp, w.realOnly)
	want, err := fhir.Interpret(prog, map[string][]complex128{"x": vals})
	if err != nil {
		return err
	}
	pt, err := e.enc.EncodeAtLevel(vals, params.DefaultScale(), w.levels)
	if err != nil {
		return err
	}
	ct := e.encr.Encrypt(pt)
	check := func(what string, out *ckks.Ciphertext) error {
		if worst := maxSlotErr(e.enc.Decode(e.decr.Decrypt(out)), want); !(worst <= 1e-4) {
			return fmt.Errorf("%s: max slot error %.3g against fhir.Interpret exceeds 1e-4", what, worst)
		}
		return nil
	}

	var lowered [3][][]cluster.Instr // by card count
	for _, cards := range []int{1, 2} {
		t0 := time.Now()
		lowered[cards], err = fhir.LowerCluster(prog, e.enc, cards)
		if err != nil {
			return err
		}
		b.m["fhir.lower_cluster_ms"] = float64(time.Since(t0).Nanoseconds()) / 1e6 // the two-card lowering stays
	}

	// timed runs fn liveRuns times, each between two reference readings.
	timed := func(fn func() error) (float64, error) {
		v := make([]float64, 0, liveRuns)
		b.readRef()
		for i := 0; i < liveRuns; i++ {
			before := b.lastRef
			t0 := time.Now()
			if err := fn(); err != nil {
				return 0, err
			}
			wall := float64(time.Since(t0).Nanoseconds()) / 1e6
			v = append(v, wall*b.factor(before, b.readRef()))
		}
		return median(v), nil
	}

	runOn := func(cards int) func() error {
		return func() error {
			cl := cluster.New(params, eval, cards)
			for c := 0; c < cards; c++ {
				cl.Load(c, "x", ct)
			}
			if err := cl.Run(context.Background(), lowered[cards]); err != nil {
				return err
			}
			out, err := cl.Get(0, "out")
			if err != nil {
				return err
			}
			return check(fmt.Sprintf("%d-card cluster", cards), out)
		}
	}
	one, err := timed(runOn(1))
	if err != nil {
		return err
	}
	two, err := timed(runOn(2))
	if err != nil {
		return err
	}

	srv, err := serve.New(serve.Config{
		Fleet:   hw.Fleet{Cards: 4, CardsPerServer: 4},
		Backend: &serve.ClusterBackend{Params: params, Eval: eval},
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	n := 0
	job, err := timed(func() error {
		n++
		var out *ckks.Ciphertext
		tk, err := srv.Submit(&serve.Job{
			ID:    fmt.Sprintf("live-%d", n),
			Cards: 2,
			BuildCluster: func(cards int) (*serve.ClusterJob, error) {
				return &serve.ClusterJob{
					Programs: lowered[cards],
					Preload: func(cl *cluster.Cluster) error {
						for c := 0; c < cards; c++ {
							cl.Load(c, "x", ct)
						}
						return nil
					},
					Collect: func(cl *cluster.Cluster) (err error) {
						out, err = cl.Get(0, "out")
						return err
					},
				}, nil
			},
		})
		if err != nil {
			return err
		}
		if _, err := tk.Wait(context.Background()); err != nil {
			return err
		}
		return check("serve live job", out)
	})
	if err != nil {
		return err
	}

	b.m["cluster.run_ms_1card"] = one
	b.m["cluster.run_ms_2card"] = two
	b.m["cluster.speedup_2card"] = one / two
	b.m["serve.live_job_ms_p50"] = job
	b.m["serve.live_overhead_ms"] = job - two
	return nil
}
