// Command hydra-serve drives synthetic inference workloads against the
// multi-tenant serving layer (internal/serve) and reports throughput and
// latency percentiles per fleet size. Three workload modes:
//
//   - live (default): real-time open-loop replay against the live Server —
//     jobs arrive per a Poisson process at -rate jobs/s and occupy their
//     granted cards for the job's simulated makespan scaled by -dilation.
//     This exercises the real goroutine/lock machinery; CI runs it under
//     -race.
//   - sweep: virtual-time saturation sweep — the same scheduler structures
//     driven by a discrete-event replay, so thousand-card fleets digest 10^4+
//     offered jobs per point in milliseconds. Each point is one offered load
//     (a multiple of the fleet's estimated capacity, -loads, or an absolute
//     -rates list); -ablate re-runs every point with per-job grants to
//     isolate the continuous-batching gain.
//   - closed: closed-loop virtual-time replay — a fixed population of -users
//     clients, each thinking for an exponential -think between jobs; the run
//     ends after -jobs completions. This is the self-throttling regime of a
//     real service ("N concurrent users"), where goodput is the question.
//
// Usage:
//
//	hydra-serve -fleets 8,32 -rate 40 -duration 3s
//	hydra-serve -mode sweep -fleets 8,64,256,1024 -jobs 10000 -coalesce 8 -ablate
//	hydra-serve -mode closed -fleets 256 -users 100000 -think 30s -jobs 20000
//
// The mix is the serve package's default shapes: small ConvBN layers,
// mid-size BSGS matrix-vector layers, and whole-server bootstrap batches.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"hydra/internal/hw"
	"hydra/internal/serve"
	"hydra/internal/sim"
)

func main() {
	var opt options
	flag.StringVar(&opt.mode, "mode", "live", "workload mode: live, sweep, or closed")
	flag.StringVar(&opt.fleets, "fleets", "8,32", "comma-separated fleet sizes (cards) to bench")
	flag.IntVar(&opt.cps, "cps", 8, "cards per server (server-boundary for network pricing)")
	flag.Float64Var(&opt.rate, "rate", 40, "live mode: mean job arrivals per second (open loop)")
	flag.StringVar(&opt.rates, "rates", "", "sweep mode: absolute arrival rates (jobs/s); overrides -loads")
	flag.StringVar(&opt.loads, "loads", "0.25,0.5,0.75,1.0,1.25", "sweep mode: offered loads as multiples of estimated fleet capacity")
	flag.DurationVar(&opt.duration, "duration", 3*time.Second, "live mode: arrival horizon per fleet size")
	flag.IntVar(&opt.jobs, "jobs", 10000, "sweep/closed modes: offered (sweep) or completed (closed) jobs per point")
	flag.IntVar(&opt.users, "users", 100000, "closed mode: concurrent user population")
	flag.DurationVar(&opt.think, "think", 30*time.Second, "closed mode: mean think time between a user's jobs")
	flag.Int64Var(&opt.seed, "seed", 1, "workload seed (same seed, same arrival sequence)")
	flag.IntVar(&opt.queue, "queue", 0, "admission queue depth (0 = mode default: 64 live, 1024 sweep/closed)")
	flag.IntVar(&opt.coalesce, "coalesce", 1, "continuous-batching limit: jobs per card grant (1 = per-job grants)")
	flag.BoolVar(&opt.ablate, "ablate", false, "sweep mode: re-run each point with per-job grants for the batching ablation")
	flag.Float64Var(&opt.dilation, "dilation", 0.25, "live mode: real seconds slept per simulated second of card occupancy")
	flag.DurationVar(&opt.timeout, "timeout", 0, "default per-job timeout (0 = none)")
	flag.StringVar(&opt.out, "out", "-", "report path (\"-\" = stdout)")
	flag.Parse()

	if err := run(opt); err != nil {
		fmt.Fprintln(os.Stderr, "hydra-serve:", err)
		os.Exit(1)
	}
}

type options struct {
	mode     string
	fleets   string
	cps      int
	rate     float64
	rates    string
	loads    string
	duration time.Duration
	jobs     int
	users    int
	think    time.Duration
	seed     int64
	queue    int
	coalesce int
	ablate   bool
	dilation float64
	timeout  time.Duration
	out      string
}

// fleetReport is the per-fleet-size section of a live-mode report.
type fleetReport struct {
	Cards          int     `json:"cards"`
	CardsPerServer int     `json:"cards_per_server"`
	Offered        int     `json:"offered_jobs"`
	WallSeconds    float64 `json:"wall_seconds"`
	JobsPerSec     float64 `json:"jobs_per_sec"`

	serve.Snapshot
}

// sweepPoint is one saturation-curve sample: a fleet size at an offered load.
type sweepPoint struct {
	Cards          int     `json:"cards"`
	CardsPerServer int     `json:"cards_per_server"`
	Load           float64 `json:"load"` // offered / estimated capacity (0 when -rates given)
	RateHz         float64 `json:"arrival_rate_hz"`
	Coalesce       int     `json:"coalesce"`

	*serve.ReplayStats

	// Solo is the per-job-grant ablation of the same point (-ablate).
	Solo *serve.ReplayStats `json:"solo,omitempty"`
}

// closedPoint is one closed-loop sample: a fleet size under a population.
type closedPoint struct {
	Cards          int           `json:"cards"`
	CardsPerServer int           `json:"cards_per_server"`
	Users          int           `json:"users"`
	ThinkSeconds   float64       `json:"think_seconds"`
	Coalesce       int           `json:"coalesce"`
	WallClock      time.Duration `json:"-"`

	*serve.ReplayStats
}

// report is the whole JSON document. Exactly one of Fleets, Sweep, Closed is
// populated, per -mode.
type report struct {
	Backend    string  `json:"backend"`
	Mode       string  `json:"mode"`
	Seed       int64   `json:"seed"`
	QueueDepth int     `json:"queue_depth"`
	Coalesce   int     `json:"coalesce"`
	RateHz     float64 `json:"arrival_rate_hz,omitempty"`
	HorizonSec float64 `json:"horizon_seconds,omitempty"`
	Dilation   float64 `json:"dilation,omitempty"`
	Jobs       int     `json:"jobs_per_point,omitempty"`

	Fleets []fleetReport `json:"fleets,omitempty"`
	Sweep  []sweepPoint  `json:"sweep,omitempty"`
	Closed []closedPoint `json:"closed,omitempty"`
}

func run(opt options) error {
	sizes, err := parseFleets(opt.fleets)
	if err != nil {
		return err
	}
	cfg := sim.HydraConfig()
	shapes := serve.DefaultShapes(cfg.Scheme, cfg.Card)

	// Price each shape once up front so admission control (live) and the
	// capacity estimate (sweep) know job costs without simulating arrivals
	// on the hot path.
	est, err := priceShapes(shapes, cfg)
	if err != nil {
		return err
	}

	rep := report{
		Backend:    "sim",
		Mode:       opt.mode,
		Seed:       opt.seed,
		QueueDepth: opt.queue,
		Coalesce:   opt.coalesce,
	}
	switch opt.mode {
	case "live":
		if rep.QueueDepth == 0 {
			rep.QueueDepth = serve.DefaultQueueDepth
		}
		rep.RateHz = opt.rate
		rep.HorizonSec = opt.duration.Seconds()
		rep.Dilation = opt.dilation
		for _, cards := range sizes {
			fr, err := runLive(cards, rep.QueueDepth, opt, cfg, shapes, est)
			if err != nil {
				return fmt.Errorf("fleet %d: %w", cards, err)
			}
			rep.Fleets = append(rep.Fleets, fr)
			fmt.Fprintf(os.Stderr, "hydra-serve: fleet %4d cards: %d offered, %d completed, %d shed, %.1f jobs/s, exec p50 %.3fs p99 %.3fs\n",
				cards, fr.Offered, fr.Completed, fr.Rejected+fr.Expired, fr.JobsPerSec, fr.ExecP50, fr.ExecP99)
		}
	case "sweep":
		if rep.QueueDepth == 0 {
			rep.QueueDepth = 1024
		}
		rep.Jobs = opt.jobs
		points, err := runSweep(sizes, rep.QueueDepth, opt, cfg, shapes, est)
		if err != nil {
			return err
		}
		rep.Sweep = points
	case "closed":
		if rep.QueueDepth == 0 {
			rep.QueueDepth = 1024
		}
		rep.Jobs = opt.jobs
		for _, cards := range sizes {
			cp, err := runClosed(cards, rep.QueueDepth, opt, cfg, shapes)
			if err != nil {
				return fmt.Errorf("fleet %d: %w", cards, err)
			}
			rep.Closed = append(rep.Closed, cp)
			fmt.Fprintf(os.Stderr, "hydra-serve: fleet %4d cards, %d users: %.1f jobs/s goodput, util %.2f, wait p99 %.3fs [%s]\n",
				cards, opt.users, cp.JobsPerSec, cp.Utilization, cp.QueueWaitP99, cp.WallClock.Round(time.Millisecond))
		}
	default:
		return fmt.Errorf("unknown mode %q (want live, sweep, or closed)", opt.mode)
	}

	w := os.Stdout
	if opt.out != "-" {
		f, err := os.Create(opt.out)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		return err
	}
	if opt.out != "-" {
		n := len(rep.Fleets) + len(rep.Sweep) + len(rep.Closed)
		fmt.Fprintf(os.Stderr, "hydra-serve: wrote %s (%d points)\n", opt.out, n)
	}
	return nil
}

// runLive drives one real-time open-loop run against a fresh live server.
func runLive(cards, queue int, opt options, cfg sim.Config, shapes []serve.Shape, est map[string]float64) (fleetReport, error) {
	cps := opt.cps
	if cps > cards {
		cps = cards
	}
	s, err := serve.New(serve.Config{
		Fleet:          hw.Fleet{Cards: cards, CardsPerServer: cps},
		Backend:        &serve.SimBackend{Cfg: cfg, Dilation: opt.dilation},
		QueueDepth:     queue,
		DefaultTimeout: opt.timeout,
		CoalesceLimit:  opt.coalesce,
	})
	if err != nil {
		return fleetReport{}, err
	}
	defer s.Close()

	w := serve.Workload{Seed: opt.seed, Rate: opt.rate, Horizon: opt.duration, Shapes: shapes}
	arrivals, err := w.Generate()
	if err != nil {
		return fleetReport{}, err
	}

	start := time.Now()
	for _, a := range arrivals {
		if wait := a.At - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		a.Job.EstCost = est[a.Shape]
		// Shapes demanding more cards than this fleet are scaled down to
		// the whole fleet rather than shed as infeasible.
		if a.Job.Cards > cards {
			a.Job.Cards = cards
		}
		if _, err := s.Submit(a.Job); err != nil && !errors.Is(err, serve.ErrOverloaded) && !errors.Is(err, serve.ErrDeadline) {
			return fleetReport{}, err
		}
	}
	s.Drain()
	wall := time.Since(start).Seconds()

	snap := s.Metrics().Snapshot()
	fr := fleetReport{
		Cards:          cards,
		CardsPerServer: cps,
		Offered:        len(arrivals),
		WallSeconds:    wall,
		Snapshot:       snap,
	}
	if wall > 0 {
		fr.JobsPerSec = float64(snap.Completed) / wall
	}
	return fr, nil
}

// capacityHz estimates the fleet's job-completion ceiling from the shape mix:
// cards divided by the mean card-seconds one job of the mix consumes.
func capacityHz(cards int, shapes []serve.Shape, est map[string]float64) float64 {
	totalW, cardSec := 0.0, 0.0
	for _, sh := range shapes {
		totalW += sh.Weight
		cardSec += sh.Weight * float64(sh.Cards) * est[sh.Name]
	}
	if cardSec == 0 {
		return 0
	}
	return float64(cards) * totalW / cardSec
}

// runSweep produces the saturation curve: per fleet size, one virtual-time
// replay per offered load, with an optional per-job-grant ablation.
func runSweep(sizes []int, queue int, opt options, cfg sim.Config, shapes []serve.Shape, est map[string]float64) ([]sweepPoint, error) {
	absRates, err := parseFloats(opt.rates)
	if err != nil {
		return nil, fmt.Errorf("-rates: %w", err)
	}
	loads, err := parseFloats(opt.loads)
	if err != nil {
		return nil, fmt.Errorf("-loads: %w", err)
	}
	if len(absRates) == 0 && len(loads) == 0 {
		return nil, fmt.Errorf("sweep mode needs -rates or -loads")
	}

	var points []sweepPoint
	for _, cards := range sizes {
		cps := opt.cps
		if cps > cards {
			cps = cards
		}
		fit := fitShapes(shapes, cards)
		rc := serve.ReplayConfig{
			Fleet:      hw.Fleet{Cards: cards, CardsPerServer: cps},
			QueueDepth: queue,
			Coalesce:   opt.coalesce,
			Cost:       serve.SimCost(cfg, cps),
		}
		cap := capacityHz(cards, fit, est)
		rates := absRates
		pointLoads := make([]float64, len(absRates))
		if len(rates) == 0 {
			for _, l := range loads {
				rates = append(rates, l*cap)
				pointLoads = append(pointLoads, l)
			}
		}
		for i, rate := range rates {
			w := serve.Workload{Seed: opt.seed, Rate: rate, Shapes: fit}
			arrivals, err := w.GenerateN(opt.jobs)
			if err != nil {
				return nil, err
			}
			st, err := serve.Replay(arrivals, rc)
			if err != nil {
				return nil, fmt.Errorf("fleet %d rate %.1f: %w", cards, rate, err)
			}
			pt := sweepPoint{
				Cards:          cards,
				CardsPerServer: cps,
				Load:           pointLoads[i],
				RateHz:         rate,
				Coalesce:       opt.coalesce,
				ReplayStats:    st,
			}
			if opt.ablate && opt.coalesce > 1 {
				solo := rc
				solo.Coalesce = 1
				soloStats, err := serve.Replay(arrivals, solo)
				if err != nil {
					return nil, fmt.Errorf("fleet %d rate %.1f ablation: %w", cards, rate, err)
				}
				pt.Solo = soloStats
			}
			points = append(points, pt)
			fmt.Fprintf(os.Stderr, "hydra-serve: sweep fleet %4d load %.2f (%.1f/s): %.1f jobs/s, util %.2f, wait p99 %.3fs, shed %d\n",
				cards, pt.Load, rate, st.JobsPerSec, st.Utilization, st.QueueWaitP99, st.Shed)
		}
	}
	return points, nil
}

// runClosed drives one closed-loop replay for a fleet size.
func runClosed(cards, queue int, opt options, cfg sim.Config, shapes []serve.Shape) (closedPoint, error) {
	cps := opt.cps
	if cps > cards {
		cps = cards
	}
	rc := serve.ReplayConfig{
		Fleet:      hw.Fleet{Cards: cards, CardsPerServer: cps},
		QueueDepth: queue,
		Coalesce:   opt.coalesce,
		Cost:       serve.SimCost(cfg, cps),
	}
	start := time.Now()
	st, err := serve.ReplayClosed(opt.users, opt.jobs, opt.think, opt.seed, fitShapes(shapes, cards), rc)
	if err != nil {
		return closedPoint{}, err
	}
	return closedPoint{
		Cards:          cards,
		CardsPerServer: cps,
		Users:          opt.users,
		ThinkSeconds:   opt.think.Seconds(),
		Coalesce:       opt.coalesce,
		WallClock:      time.Since(start),
		ReplayStats:    st,
	}, nil
}

// fitShapes caps shape demands at the fleet size, so small fleets run the
// mix scaled down instead of shedding wide shapes as infeasible.
func fitShapes(shapes []serve.Shape, cards int) []serve.Shape {
	out := make([]serve.Shape, len(shapes))
	copy(out, shapes)
	for i := range out {
		if out[i].Cards > cards {
			out[i].Cards = cards
		}
	}
	return out
}

// priceShapes simulates each shape once at its native card demand.
func priceShapes(shapes []serve.Shape, cfg sim.Config) (map[string]float64, error) {
	est := make(map[string]float64, len(shapes))
	for _, sh := range shapes {
		prog, err := sh.Build(sh.Cards)
		if err != nil {
			return nil, fmt.Errorf("shape %s: %w", sh.Name, err)
		}
		res, err := sim.Run(prog, cfg)
		if err != nil {
			return nil, fmt.Errorf("shape %s: %w", sh.Name, err)
		}
		est[sh.Name] = res.Makespan
	}
	return est, nil
}

func parseFleets(list string) ([]int, error) {
	var sizes []int
	for _, part := range strings.Split(list, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		n, err := strconv.Atoi(part)
		if err != nil || n <= 0 {
			return nil, fmt.Errorf("bad fleet size %q", part)
		}
		sizes = append(sizes, n)
	}
	if len(sizes) == 0 {
		return nil, fmt.Errorf("no fleet sizes given")
	}
	sort.Ints(sizes)
	return sizes, nil
}

func parseFloats(list string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(list, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		v, err := strconv.ParseFloat(part, 64)
		if err != nil || v <= 0 {
			return nil, fmt.Errorf("bad value %q", part)
		}
		out = append(out, v)
	}
	return out, nil
}
