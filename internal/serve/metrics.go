package serve

import "sort"

// Snapshot is a point-in-time copy of the scheduler's counters, with the
// gauges and latency percentiles derived from them (Server.Snapshot).
type Snapshot struct {
	Submitted int64 `json:"submitted"` // admitted into the queue
	Completed int64 `json:"completed"` // finished successfully
	Failed    int64 `json:"failed"`    // finished with a non-cancellation error
	Canceled  int64 `json:"canceled"`  // cancelled or timed out while running
	Rejected  int64 `json:"rejected"`  // shed at admission (overload or closed)
	Expired   int64 `json:"expired"`   // shed by deadline (at admission or in queue)

	Grants    int64 `json:"grants"`    // card grants issued (a grant may carry several jobs)
	Coalesced int64 `json:"coalesced"` // jobs that rode a shared grant beyond its leader
	Refills   int64 `json:"refills"`   // grants handed straight to a queued job

	Queued    int `json:"queued"`     // jobs waiting
	Running   int `json:"running"`    // grants executing (== jobs when nothing coalesces)
	CardsBusy int `json:"cards_busy"` // cards granted to running grants

	QueueWaitP50 float64 `json:"queue_wait_p50_s"`
	QueueWaitP99 float64 `json:"queue_wait_p99_s"`
	ExecP50      float64 `json:"exec_p50_s"`
	ExecP99      float64 `json:"exec_p99_s"`
}

// percentile returns the nearest-rank q-quantile of samples (0 when empty).
func percentile(samples []float64, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	idx := int(q*float64(len(sorted))+0.5) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}
