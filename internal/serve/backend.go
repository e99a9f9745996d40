package serve

import (
	"context"
	"fmt"
	"time"

	"hydra/internal/ckks"
	"hydra/internal/cluster"
	"hydra/internal/sim"
)

// ExecReport is what a backend knows about a finished job beyond success.
type ExecReport struct {
	// SimSeconds is the analytic makespan of the job on its granted
	// placement (sim backend; zero for functional backends).
	SimSeconds float64
}

// Backend executes granted jobs. The placement carries the physical card
// set and the fleet's server width, so backends can price (sim) or shape
// (cluster) the execution for where the scheduler landed the job.
type Backend interface {
	Name() string
	Run(ctx context.Context, job *Job, pl sim.Placement) (*ExecReport, error)
}

// SimBackend executes jobs on the analytic timing model: the job's program
// is built for the grant size, priced on the granted placement (so a grant
// spanning servers costs more than one confined to a server), and the card
// occupancy is emulated by a context-aware sleep of Dilation real seconds
// per simulated second. Dilation 0 makes jobs instantaneous — pure
// scheduler stress; Dilation 1 emulates the fleet in real time — capacity
// planning and load tests.
type SimBackend struct {
	Cfg      sim.Config
	Dilation float64
}

// Name implements Backend.
func (b *SimBackend) Name() string { return "sim" }

// Run implements Backend.
func (b *SimBackend) Run(ctx context.Context, job *Job, pl sim.Placement) (*ExecReport, error) {
	if job.Build == nil {
		return nil, fmt.Errorf("sim backend: job %s has no task-program builder", job.ID)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	prog, err := job.Build(len(pl.Cards))
	if err != nil {
		return nil, fmt.Errorf("sim backend: job %s: %w", job.ID, err)
	}
	res, err := sim.RunOn(prog, b.Cfg, pl)
	if err != nil {
		return nil, fmt.Errorf("sim backend: job %s: %w", job.ID, err)
	}
	if b.Dilation > 0 {
		if err := sleepCtx(ctx, durationOf(res.Makespan*b.Dilation)); err != nil {
			return nil, err
		}
	}
	return &ExecReport{SimSeconds: res.Makespan}, nil
}

// sleepCtx sleeps for d or until the context expires.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// ClusterBackend executes jobs functionally: each grant gets a fresh
// goroutine-card cluster of the grant's size running real CKKS arithmetic,
// with the job's context (timeout, deadline, server shutdown) cancelling
// the card engines mid-flight.
type ClusterBackend struct {
	Params *ckks.Parameters
	// Eval is the shared evaluator template (the paper preloads identical
	// evaluation keys onto every FPGA).
	Eval *ckks.Evaluator
}

// Name implements Backend.
func (b *ClusterBackend) Name() string { return "cluster" }

// Run implements Backend.
func (b *ClusterBackend) Run(ctx context.Context, job *Job, pl sim.Placement) (*ExecReport, error) {
	if job.BuildCluster == nil {
		return nil, fmt.Errorf("cluster backend: job %s has no cluster builder", job.ID)
	}
	if pl.Batch > 1 {
		// The functional cluster executes one job's data; it has no batched
		// datapath to amortize over. Serve with CoalesceLimit <= 1.
		return nil, fmt.Errorf("cluster backend: job %s: batched grants (batch=%d) are not executable functionally", job.ID, pl.Batch)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	cj, err := job.BuildCluster(len(pl.Cards))
	if err != nil {
		return nil, fmt.Errorf("cluster backend: job %s: %w", job.ID, err)
	}
	if cj == nil {
		return nil, fmt.Errorf("cluster backend: job %s: cluster builder returned no job", job.ID)
	}
	cl := cluster.New(b.Params, b.Eval, len(pl.Cards))
	if cj.Preload != nil {
		if err := cj.Preload(cl); err != nil {
			return nil, fmt.Errorf("cluster backend: job %s preload: %w", job.ID, err)
		}
	}
	if err := cl.Run(ctx, cj.Programs); err != nil {
		return nil, fmt.Errorf("cluster backend: job %s: %w", job.ID, err)
	}
	if cj.Collect != nil {
		if err := cj.Collect(cl); err != nil {
			return nil, fmt.Errorf("cluster backend: job %s collect: %w", job.ID, err)
		}
	}
	return &ExecReport{}, nil
}
