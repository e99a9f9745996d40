package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"time"
)

// span is one timed interval recorded by the benchmark's own files around a
// call into a layer's public functions. Spans of one op share its index.
type span struct {
	Name   string
	Op     int
	Parent int // index into tracer.spans, -1 for a root
	Start  time.Duration
	End    time.Duration
	// Factor turns a wall duration into a referenced one: refMS over the mean
	// of the reference readings around the segment the span lies in.
	Factor float64
}

func (s span) ms() float64 { return float64((s.End - s.Start).Nanoseconds()) / 1e6 }

// layer is the part of a span name before the first dot: the internal/
// package the spanned call belongs to ("bench" for the harness's own roots).
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i > 0 {
		return s.Name[:i]
	}
	return "bench"
}

// tracer keeps spans in memory; they are written out when the run ends.
// A nil tracer records nothing, which is how untraced ops run.
type tracer struct {
	epoch time.Time
	spans []span
	stack []int
	op    int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// beginOp drops any span a panicking op left open.
func (t *tracer) beginOp(op int) {
	if t == nil {
		return
	}
	t.stack = t.stack[:0]
	t.op = op
}

func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	id := len(t.spans)
	t.spans = append(t.spans, span{Name: name, Op: t.op, Parent: parent, Start: time.Since(t.epoch), Factor: 1})
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	t.spans[id].End = time.Since(t.epoch)
	if n := len(t.stack); n > 0 && t.stack[n-1] == id {
		t.stack = t.stack[:n-1]
	}
}

// setFactor stamps the referenced-time factor on every span from index from.
func (t *tracer) setFactor(from int, f float64) {
	if t == nil {
		return
	}
	for i := from; i < len(t.spans); i++ {
		t.spans[i].Factor = f
	}
}

func (t *tracer) mark() int {
	if t == nil {
		return 0
	}
	return len(t.spans)
}

// selfTimes returns, per span, its duration minus the part of its interval
// that its child spans cover (children may overlap each other).
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		kids := children[i]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered := time.Duration(0)
		edge := s.Start
		for _, k := range kids {
			lo, hi := spans[k].Start, spans[k].End
			if lo < edge {
				lo = edge
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		out[i] = s.End - s.Start - covered
	}
	return out
}

// referenced returns the referenced durations, in ms, of every span with the
// given name, one per occurrence.
func (t *tracer) referenced(name string) []float64 {
	if t == nil {
		return nil
	}
	var v []float64
	for _, s := range t.spans {
		if s.Name == name {
			v = append(v, s.ms()*s.Factor)
		}
	}
	return v
}

// chromeEvent is one complete ("X") event of the Chrome trace-event format.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`  // microseconds
	Dur  float64        `json:"dur"` // microseconds
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

func (t *tracer) writeChrome(path string) error {
	self := selfTimes(t.spans)
	events := make([]chromeEvent, len(t.spans))
	for i, s := range t.spans {
		events[i] = chromeEvent{
			Name: s.Name, Cat: s.layer(), Ph: "X",
			Ts:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: 1,
			Args: map[string]any{"op": s.Op, "id": i, "parent": s.Parent,
				"self_us": float64(self[i].Nanoseconds()) / 1e3, "ref_factor": s.Factor},
		}
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
