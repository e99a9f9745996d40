package main

import (
	"fmt"

	"hydra/internal/hw"
	"hydra/internal/serve"
	"hydra/internal/sim"
)

// serveReplay drives the scheduler's policy core in virtual time: one op is a
// sweep of three serve.Replay calls, at 0.5, 1.0 and 1.25 of the fleet's
// estimated capacity, over the default shape mix with the arithmetic priced
// by the simulator (and memoised), not run.
type serveReplay struct {
	cards, perServer, queue, coalesce, jobs int

	rc       serve.ReplayConfig // its Cost closure holds the pricing memo
	arrivals [][]serve.Arrival  // one stream per load point
	first    []serve.ReplayStats
}

var replayLoads = []struct {
	load float64
	tag  string
}{{0.5, "l050"}, {1.0, "l100"}, {1.25, "l125"}}

func newServeReplay(smoke bool) workload {
	w := &serveReplay{cards: 256, perServer: 8, queue: 1024, coalesce: 8, jobs: 20000}
	if smoke {
		w.cards, w.jobs = 16, 500
	}
	return w
}

func (w *serveReplay) setup(b *bench) error {
	cfg := sim.HydraConfig()
	shapes := serve.DefaultShapes(cfg.Scheme, cfg.Card)

	// Price each shape once at its own card demand; the fleet's capacity is
	// its cards over the mean card-seconds a job of the mix holds.
	totalW, cardSec := 0.0, 0.0
	for i := range shapes {
		if shapes[i].Cards > w.cards {
			shapes[i].Cards = w.cards
		}
		prog, err := shapes[i].Build(shapes[i].Cards)
		if err != nil {
			return fmt.Errorf("shape %s: %w", shapes[i].Name, err)
		}
		res, err := sim.Run(prog, cfg)
		if err != nil {
			return fmt.Errorf("shape %s: %w", shapes[i].Name, err)
		}
		totalW += shapes[i].Weight
		cardSec += shapes[i].Weight * float64(shapes[i].Cards) * res.Makespan
	}
	capacity := float64(w.cards) * totalW / cardSec
	b.notes["serve_capacity_jobs_per_s"] = capacity

	w.rc = serve.ReplayConfig{
		Fleet:      hw.Fleet{Cards: w.cards, CardsPerServer: w.perServer},
		QueueDepth: w.queue,
		Coalesce:   w.coalesce,
		Cost:       serve.SimCost(cfg, w.perServer),
	}
	for i, l := range replayLoads {
		wl := serve.Workload{Seed: b.cfg.seed + int64(i), Rate: l.load * capacity, Shapes: shapes}
		arr, err := wl.GenerateN(w.jobs)
		if err != nil {
			return err
		}
		w.arrivals = append(w.arrivals, arr)
	}
	return nil
}

func (w *serveReplay) warmups() int               { return 6 }
func (w *serveReplay) sensitivity() float64       { return 1 }
func (w *serveReplay) warm(b *bench, _ int) error { return w.op(b) }

func (w *serveReplay) op(b *bench) error {
	sweep := make([]serve.ReplayStats, len(replayLoads))
	for i, l := range replayLoads {
		var st *serve.ReplayStats
		var err error
		b.segment("serve.replay:"+l.tag, func() { st, err = serve.Replay(w.arrivals[i], w.rc) })
		if err != nil {
			return fmt.Errorf("load %.2f: %w", l.load, err)
		}
		sweep[i] = *st
	}
	if b.spoiled() {
		sweep[0].Completed++
	}
	for i, st := range sweep {
		if st.Completed != st.Grants+st.Coalesced {
			return fmt.Errorf("load %.2f: completed %d != grants %d + coalesced %d", replayLoads[i].load, st.Completed, st.Grants, st.Coalesced)
		}
		if st.Offered != w.jobs || st.Offered != st.Completed+st.Shed+st.Expired {
			return fmt.Errorf("load %.2f: offered %d != completed %d + shed %d + expired %d", replayLoads[i].load, st.Offered, st.Completed, st.Shed, st.Expired)
		}
	}
	if w.first == nil {
		w.first = sweep
		return nil
	}
	for i := range sweep {
		if sweep[i] != w.first[i] {
			return fmt.Errorf("load %.2f: statistics differ from the first sweep's", replayLoads[i].load)
		}
	}
	return nil
}

func (w *serveReplay) layers(b *bench) error {
	for i, l := range replayLoads {
		b.m["serve.replay_util."+l.tag] = w.first[i].Utilization
	}
	mid, top := w.first[1], w.first[2]
	b.m["serve.replay_wait_p50_s.l100"] = mid.QueueWaitP50
	b.m["serve.replay_wait_p99_s.l100"] = mid.QueueWaitP99
	b.m["serve.replay_vjobs_per_s.l125"] = top.JobsPerSec
	b.m["serve.replay_coalesced.l125"] = float64(top.Coalesced)
	b.m["serve.replay_refills.l125"] = float64(top.Refills)
	b.m["serve.replay_shed.l125"] = float64(top.Shed)
	b.m["serve.replay_grants.l125"] = float64(top.Grants)
	b.m["serve.sched_us_per_job"] = 1e3 * b.m["op_ms"] / float64(len(replayLoads)*w.jobs)
	return nil
}
