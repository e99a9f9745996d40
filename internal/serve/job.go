package serve

import (
	"fmt"
	"time"

	"hydra/internal/cluster"
	"hydra/internal/hw"
	"hydra/internal/task"
)

// Job is one FHE inference request. A job names how many cards it needs and
// how to build its per-card instruction streams for that grant — the program
// shape is the job's (Procedure 2 fixes the schedule within the grant); the
// card set, start time and co-tenants are the fleet scheduler's.
type Job struct {
	// ID identifies the job in tickets, errors and metrics.
	ID string
	// Tenant attributes the job (informational; admission is tenant-blind).
	Tenant string
	// Priority ranks admission: higher runs sooner.
	Priority int
	// Cards is the card demand. The scheduler grants exactly this many.
	Cards int
	// Timeout caps execution once the job starts (0 = server default).
	Timeout time.Duration
	// Deadline is the absolute completion bound. Admission rejects jobs
	// whose deadline is unmeetable (ErrDeadline); queued jobs whose deadline
	// passes are shed; running jobs are cancelled at the deadline.
	Deadline time.Time
	// EstCost is the job's estimated execution time in seconds, set by the
	// submitter. Admission refuses a job whose Deadline is closer than it.
	EstCost float64
	// BatchKey names the job's continuous-batching compatibility class.
	// Jobs sharing a non-empty key MUST be interchangeable work: identical
	// program shape, parameters and card demand, so that any of them can
	// execute as one batched run of the leader's program (sim prices the
	// batch via Placement.Batch). The scheduler then coalesces queued
	// same-key jobs onto one card grant, and hands a finishing grant's
	// cards straight to the next same-key job instead of bouncing them
	// through the free list. An empty key (the zero value) opts out: the
	// job always gets a private grant.
	BatchKey string

	// Build materializes the job's task program for a grant of the given
	// size (cards numbered 0..cards-1; the scheduler supplies the physical
	// placement). Required by SimBackend.
	Build func(cards int) (*task.Program, error)
	// BuildCluster materializes the job's functional instruction streams for
	// a grant of the given size. Required by ClusterBackend.
	BuildCluster func(cards int) (*ClusterJob, error)
}

// ClusterJob is a functional job body: per-card instruction streams plus the
// host-side preload and result-collection hooks around them.
type ClusterJob struct {
	Programs [][]cluster.Instr
	// Preload places inputs into the cards' stores before execution.
	Preload func(cl *cluster.Cluster) error
	// Collect extracts results after a successful run.
	Collect func(cl *cluster.Cluster) error
}

// validate checks the job against the fleet.
func (j *Job) validate(fleet hw.Fleet) error {
	if j == nil {
		return fmt.Errorf("serve: nil job")
	}
	if j.ID == "" {
		return fmt.Errorf("serve: job needs an ID")
	}
	if j.Cards <= 0 {
		return fmt.Errorf("serve: job %s: card demand must be positive, got %d", j.ID, j.Cards)
	}
	if j.Cards > fleet.Cards {
		return fmt.Errorf("serve: job %s needs %d cards, fleet has %d: %w", j.ID, j.Cards, fleet.Cards, ErrInfeasible)
	}
	if j.Build == nil && j.BuildCluster == nil {
		return fmt.Errorf("serve: job %s has no program builder", j.ID)
	}
	return nil
}
