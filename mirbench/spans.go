package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// span is one timed call the benchmark made into a layer.
type span struct {
	kind string // e.g. "test-rpc", "stage", "fold"
	node string // fleet member, "" for control-plane calls
	iv   interval
	err  bool
}

// spanLog keeps the traced run's spans in memory, up to max of them.
// Spans past the bound are counted in dropped, never lost silently. A
// nil *spanLog records nothing, so untraced runs call it unconditionally.
type spanLog struct {
	t0  time.Time
	max int

	mu      sync.Mutex
	spans   []span
	dropped int64
}

func newSpanLog(max int) *spanLog { return &spanLog{t0: time.Now(), max: max} }

func (l *spanLog) add(s span) {
	if l == nil {
		return
	}
	l.mu.Lock()
	if len(l.spans) < l.max {
		l.spans = append(l.spans, s)
	} else {
		l.dropped++
	}
	l.mu.Unlock()
}

// record adds a span of kind over [start, now) and returns now.
func (l *spanLog) record(kind, node string, start time.Time, err error) time.Time {
	now := time.Now()
	l.add(span{kind: kind, node: node, iv: interval{start, now}, err: err != nil})
	return now
}

// Dropped returns how many spans the bound turned away.
func (l *spanLog) Dropped() int64 {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// of returns the recorded spans of one kind.
func (l *spanLog) of(kind string) []span {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var out []span
	for _, s := range l.spans {
		if s.kind == kind {
			out = append(out, s)
		}
	}
	return out
}

// spanDurations returns the lengths of spans with f applied.
func spanDurations(ss []span, f func(time.Duration) float64) []float64 {
	out := make([]float64, len(ss))
	for i, s := range ss {
		out[i] = f(s.iv.end.Sub(s.iv.start))
	}
	return out
}

// writeChrome writes the spans in Chrome trace-event format (what
// Perfetto and chrome://tracing open), through the program's own
// exporter: one lane per fleet member, control-plane calls on lane 0.
func (l *spanLog) writeChrome(path, title string) error {
	l.mu.Lock()
	snap := telemetry.TraceSnapshot{RolloutID: title, Start: l.t0, Dropped: l.dropped,
		Spans: make([]telemetry.Span, len(l.spans))}
	for i, s := range l.spans {
		ts := telemetry.Span{ID: telemetry.SpanID(i + 1), Kind: s.kind, Node: s.node,
			StartNS: s.iv.start.Sub(l.t0).Nanoseconds(), DurNS: s.iv.end.Sub(s.iv.start).Nanoseconds()}
		if s.err {
			ts.Err = "error"
		}
		snap.Spans[i] = ts
	}
	l.mu.Unlock()
	sort.Slice(snap.Spans, func(i, j int) bool { return snap.Spans[i].StartNS < snap.Spans[j].StartNS })
	b, err := snap.Chrome()
	if err != nil {
		return fmt.Errorf("encoding trace: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
