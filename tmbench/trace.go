package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// layers are the program's modules the traced run attributes time to,
// in the order the self-time table prints them. "job" spans are the
// benchmark's own per-check roots.
var layers = []string{"tm", "pack", "explore", "spec", "automata", "safety", "liveness", "snap", "wire", "jobd"}

// span is one recorded layer call.
type span struct {
	ID, Parent, Tid    int
	Layer, Name, Check string
	Start, End         time.Duration // since the tracer's start
}

// tracer keeps the traced run's spans in memory; they are written out
// once, when the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span of the given layer under parent (0 for a root) and
// returns its id.
func (tr *tracer) begin(layer, name, check string, parent, tid int) int {
	now := time.Since(tr.t0)
	tr.mu.Lock()
	defer tr.mu.Unlock()
	id := len(tr.spans) + 1
	tr.spans = append(tr.spans, span{ID: id, Parent: parent, Tid: tid, Layer: layer, Name: name, Check: check, Start: now, End: -1})
	return id
}

// end closes span id and returns its duration.
func (tr *tracer) end(id int) time.Duration {
	now := time.Since(tr.t0)
	tr.mu.Lock()
	defer tr.mu.Unlock()
	s := &tr.spans[id-1]
	s.End = now
	return s.End - s.Start
}

// selfTimes sums, per layer, each span's duration minus the part its
// direct children cover.
func (tr *tracer) selfTimes() (self, total map[string]time.Duration, count map[string]int) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	child := make([]time.Duration, len(tr.spans)+1)
	for _, s := range tr.spans {
		if s.Parent > 0 && s.End >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self, total, count = map[string]time.Duration{}, map[string]time.Duration{}, map[string]int{}
	for _, s := range tr.spans {
		if s.End < 0 {
			continue
		}
		d := s.End - s.Start
		total[s.Layer] += d
		self[s.Layer] += d - child[s.ID]
		count[s.Layer]++
	}
	return self, total, count
}

// printSelfTimes prints the per-layer self-time table.
func (tr *tracer) printSelfTimes(w io.Writer) {
	self, total, count := tr.selfTimes()
	var sum time.Duration
	for _, d := range self {
		sum += d
	}
	fmt.Fprintf(w, "%-9s %7s %12s %12s %6s\n", "layer", "spans", "total", "self", "self%")
	for _, l := range append([]string{"job"}, layers...) {
		share := 0.0
		if sum > 0 {
			share = 100 * float64(self[l]) / float64(sum)
		}
		fmt.Fprintf(w, "%-9s %7d %12s %12s %5.1f%%\n", l, count[l],
			total[l].Round(time.Microsecond), self[l].Round(time.Microsecond), share)
	}
}

// writeChrome writes the spans as Chrome trace-event JSON (complete
// "X" events, microsecond timestamps), which Perfetto and
// chrome://tracing load directly.
func (tr *tracer) writeChrome(path string, info map[string]any) error {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat,omitempty"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur,omitempty"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	events := []event{{Name: "process_name", Ph: "M", Pid: 1, Args: map[string]any{"name": "tmbench " + fmt.Sprint(info["workload"])}}}
	tids := map[int]bool{}
	for _, s := range tr.spans {
		if s.End < 0 {
			continue
		}
		tids[s.Tid] = true
		events = append(events, event{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			Ts:  float64(s.Start.Nanoseconds()) / 1e3,
			Dur: float64((s.End - s.Start).Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.Tid,
			Args: map[string]any{"id": s.ID, "parent": s.Parent, "check": s.Check, "layer": s.Layer},
		})
	}
	var ts []int
	for t := range tids {
		ts = append(ts, t)
	}
	sort.Ints(ts)
	for _, t := range ts {
		name := "replay"
		if t > 1 {
			name = fmt.Sprintf("client %d", t-1)
		}
		events = append(events, event{Name: "thread_name", Ph: "M", Pid: 1, Tid: t, Args: map[string]any{"name": name}})
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms", "otherData": info})
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("writing trace: %w", err)
	}
	return nil
}
