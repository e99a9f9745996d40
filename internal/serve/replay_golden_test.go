package serve

import (
	"fmt"
	"testing"
	"time"

	"hydra/internal/hw"
	"hydra/internal/sim"
)

// TestReplayStatsGolden pins every ReplayStats field of the virtual-time
// replayer, percentiles included, for the default shape mix priced by
// SimCost on 64 cards: open loop with and without coalescing below and above
// capacity, plus one closed-loop run. A refactor of the grant lifecycle must
// leave each line byte-identical.
func TestReplayStatsGolden(t *testing.T) {
	cfg := sim.HydraConfig()
	shapes := DefaultShapes(cfg.Scheme, cfg.Card)
	const cards, cps = 64, 8

	// Capacity, as the bench harness defines it: the fleet's cards over the
	// mean card-seconds one job of the mix holds.
	totalW, cardSec := 0.0, 0.0
	for _, sh := range shapes {
		prog, err := sh.Build(sh.Cards)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(prog, cfg)
		if err != nil {
			t.Fatal(err)
		}
		totalW += sh.Weight
		cardSec += sh.Weight * float64(sh.Cards) * res.Makespan
	}
	capacity := cards * totalW / cardSec
	rc := func(coalesce int) ReplayConfig {
		return ReplayConfig{
			Fleet:      hw.Fleet{Cards: cards, CardsPerServer: cps},
			QueueDepth: 256,
			Coalesce:   coalesce,
			Cost:       SimCost(cfg, cps),
		}
	}

	var got []string
	for _, coalesce := range []int{1, 8} {
		for _, load := range []float64{0.5, 1.25} {
			w := Workload{Seed: 17, Rate: load * capacity, Shapes: shapes}
			arrivals, err := w.GenerateN(3000)
			if err != nil {
				t.Fatal(err)
			}
			st, err := Replay(arrivals, rc(coalesce))
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, fmt.Sprintf("open c=%d l=%.2f %+v", coalesce, load, *st))
		}
	}
	st, err := ReplayClosed(300, 3000, 50*time.Millisecond, 23, shapes, rc(4))
	if err != nil {
		t.Fatal(err)
	}
	got = append(got, fmt.Sprintf("closed c=4 %+v", *st))

	want := []string{
		"open c=1 l=0.50 {Offered:3000 Admitted:3000 Shed:0 Expired:0 Completed:3000 Grants:3000 Coalesced:0 Refills:0 Makespan:68.4695653620043 JobsPerSec:43.81508753763442 Utilization:0.5053690533219818 QueueWaitP50:0 QueueWaitP99:0.036666652584969484 ExecP50:0.38477154600429664 ExecP99:0.38477154600429664}",
		"open c=1 l=1.25 {Offered:3000 Admitted:2773 Shed:227 Expired:0 Completed:2773 Grants:2773 Coalesced:0 Refills:0 Makespan:33.69321476269197 JobsPerSec:82.30143723389982 Utilization:0.9898732553175501 QueueWaitP50:0.18843190311600821 QueueWaitP99:22.67987235216869 ExecP50:0.38477154600429664 ExecP99:0.38477154600429664}",
		"open c=8 l=0.50 {Offered:3000 Admitted:3000 Shed:0 Expired:0 Completed:3000 Grants:2986 Coalesced:14 Refills:21 Makespan:68.67562738909926 JobsPerSec:43.6836198525386 Utilization:0.5031081240445565 QueueWaitP50:0 QueueWaitP99:0.017788111266938245 ExecP50:0.38477154600429664 ExecP99:0.38477154600429664}",
		"open c=8 l=1.25 {Offered:3000 Admitted:3000 Shed:0 Expired:0 Completed:3000 Grants:1181 Coalesced:1819 Refills:678 Makespan:29.201269875047046 JobsPerSec:102.7352581869581 Utilization:0.9498606212978202 QueueWaitP50:0.031071858170328426 QueueWaitP99:0.8982001286748833 ExecP50:0.6243025368236195 ExecP99:2.054680055662944}",
		"closed c=4 {Offered:3294 Admitted:3294 Shed:0 Expired:0 Completed:3002 Grants:951 Coalesced:2113 Refills:796 Makespan:24.417075500844653 JobsPerSec:122.94674683281184 Utilization:0.9991235289799429 QueueWaitP50:0.2491957820763897 QueueWaitP99:16.526569023545225 ExecP50:1.1004466215722883 ExecP99:1.1004466215722883}",
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("replay %d:\ngot  %s\nwant %s", i, got[i], want[i])
		}
	}
}
