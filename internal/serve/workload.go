package serve

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"hydra/internal/hw"
	"hydra/internal/mapping"
	"hydra/internal/task"
)

// Shape is one synthetic job template of a workload mix.
type Shape struct {
	Name     string
	Weight   float64 // relative arrival share
	Cards    int     // card demand
	Priority int
	Timeout  time.Duration
	// Build materializes the shape's program for a grant size.
	Build func(cards int) (*task.Program, error)
}

// DefaultShapes is the mixed serving traffic of the bench harness: the three
// job archetypes of the paper's workloads, smallest first.
//
//   - conv: one multiplexed-packing ConvBN layer (ring-broadcast mapping) —
//     the high-rate small job; it backfills into idle cards.
//   - bsgs: one BSGS matrix-vector layer (FC mapping) — the mid-size job.
//   - boot: a two-ciphertext bootstrap batch — the heavy, rotation-dominated
//     job that holds a whole server for hundreds of milliseconds.
func DefaultShapes(scheme hw.SchemeParams, card hw.CardProfile) []Shape {
	times := mapping.OpTimesFor(card, scheme, scheme.BootLimbs(), 0)
	return []Shape{
		{
			Name: "conv", Weight: 6, Cards: 2, Priority: 0, Build: func(cards int) (*task.Program, error) {
				b := task.NewBuilder(cards, cards)
				ctx := mapping.NewContext(b, scheme, cards)
				if err := ctx.DistributeBroadcast(64, mapping.ConvBNUnit, 4, "ConvBN"); err != nil {
					return nil, err
				}
				return b.Build(), nil
			},
		},
		{
			Name: "bsgs", Weight: 3, Cards: 4, Priority: 0, Build: func(cards int) (*task.Program, error) {
				b := task.NewBuilder(cards, cards)
				ctx := mapping.NewContext(b, scheme, cards)
				if err := ctx.FC(256, "FC"); err != nil {
					return nil, err
				}
				return b.Build(), nil
			},
		},
		{
			Name: "boot", Weight: 1, Cards: 8, Priority: 1, Build: func(cards int) (*task.Program, error) {
				b := task.NewBuilder(cards, cards)
				ctx := mapping.NewContext(b, scheme, cards)
				boot := mapping.DefaultBootstrapOptions(scheme, cards, times)
				if err := ctx.BootstrapBatch(2, boot, times, "Boot"); err != nil {
					return nil, err
				}
				return b.Build(), nil
			},
		},
	}
}

// Workload describes a synthetic open-loop arrival process: jobs arrive per
// a Poisson process of the given rate regardless of how the server keeps up
// (which is what exposes queueing and overload, unlike closed-loop drivers
// that self-throttle).
type Workload struct {
	Seed    int64
	Rate    float64 // mean arrivals per second
	Horizon time.Duration
	Shapes  []Shape
}

// Arrival is one scheduled job submission.
type Arrival struct {
	At    time.Duration // offset from the replay start
	Shape string
	Job   *Job
}

// Generate materializes the arrival sequence over the workload horizon. It
// is deterministic for a given Workload value: the same seed yields the same
// jobs at the same offsets, which the scheduler tests rely on.
func (w Workload) Generate() ([]Arrival, error) {
	if w.Horizon <= 0 {
		return nil, fmt.Errorf("serve: workload needs a positive horizon")
	}
	return w.generate(-1, w.Horizon)
}

// GenerateN materializes exactly n arrivals, ignoring the horizon — the
// saturation sweeps fix the offered-job count per measurement point rather
// than the wall span, so every point sees the same statistical weight.
func (w Workload) GenerateN(n int) ([]Arrival, error) {
	if n <= 0 {
		return nil, fmt.Errorf("serve: workload needs a positive arrival count, got %d", n)
	}
	return w.generate(n, 0)
}

// generate draws the Poisson arrival stream until n arrivals (n >= 0) or the
// horizon (n < 0) is reached. Each job's BatchKey is its shape name: jobs of
// one shape run the same builder at the same card demand, which is exactly
// the interchangeability the continuous-batching contract requires.
func (w Workload) generate(n int, horizon time.Duration) ([]Arrival, error) {
	if w.Rate <= 0 {
		return nil, fmt.Errorf("serve: workload needs a positive rate")
	}
	if len(w.Shapes) == 0 {
		return nil, fmt.Errorf("serve: workload needs at least one shape")
	}
	totalW := 0.0
	for _, sh := range w.Shapes {
		if sh.Weight <= 0 {
			return nil, fmt.Errorf("serve: shape %s needs a positive weight", sh.Name)
		}
		totalW += sh.Weight
	}
	rng := rand.New(rand.NewSource(w.Seed))
	var out []Arrival
	at := time.Duration(0)
	for i := 0; ; i++ {
		if n >= 0 && len(out) == n {
			return out, nil
		}
		// Exponential inter-arrival gap of mean 1/Rate.
		gap := -math.Log(1-rng.Float64()) / w.Rate
		at += durationOf(gap)
		if n < 0 && at > horizon {
			return out, nil
		}
		pick := rng.Float64() * totalW
		sh := w.Shapes[len(w.Shapes)-1]
		for _, cand := range w.Shapes {
			if pick < cand.Weight {
				sh = cand
				break
			}
			pick -= cand.Weight
		}
		out = append(out, Arrival{
			At:    at,
			Shape: sh.Name,
			Job: &Job{
				ID:       fmt.Sprintf("%s-%04d", sh.Name, i),
				Tenant:   sh.Name,
				Priority: sh.Priority,
				Cards:    sh.Cards,
				Timeout:  sh.Timeout,
				BatchKey: sh.Name,
				Build:    sh.Build,
			},
		})
	}
}
