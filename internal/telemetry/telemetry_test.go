package telemetry

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestBucketIndex(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{0, 0}, {1, 0}, {2, 1}, {3, 2}, {4, 2}, {5, 3}, {8, 3}, {9, 4},
		{1024, 10}, {1025, 11}, {1 << 39, 39}, {1<<39 + 1, 40},
	}
	for _, c := range cases {
		if got := bucketIndex(c.v); got != c.want {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestHistogramObserve(t *testing.T) {
	var h Histogram
	for _, v := range []int64{1, 2, 3, 4, 100, 1 << 50} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 6 {
		t.Fatalf("count = %d, want 6", s.Count)
	}
	if s.Inf != 1 {
		t.Fatalf("inf = %d, want 1", s.Inf)
	}
	if s.Counts[0] != 1 || s.Counts[1] != 1 || s.Counts[2] != 2 || s.Counts[7] != 1 {
		t.Fatalf("bucket counts: %v", s.Counts)
	}
	wantSum := int64(1 + 2 + 3 + 4 + 100 + 1<<50)
	if s.Sum != wantSum {
		t.Fatalf("sum = %d, want %d", s.Sum, wantSum)
	}
}

func TestHistogramConcurrent(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int64(1); i <= 1000; i++ {
				h.Observe(i)
			}
		}()
	}
	wg.Wait()
	if s := h.Snapshot(); s.Count != 8000 {
		t.Fatalf("count = %d, want 8000", s.Count)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	f := r.Histogram("x", "", "op", 1)
	f.Observe("a", 1) // all no-ops, must not panic
	f.With("a").Observe(2)
	f.With("a").Time()()
	r.Counter("y", "", "").With("").Inc()
	var tr *Tracer
	trace := tr.Start("r1")
	id := trace.Begin(0, "rollout", "r1", "")
	trace.End(id, nil)
	if snap := trace.Snapshot(); len(snap.Spans) != 0 {
		t.Fatalf("nil trace snapshot has spans: %v", snap.Spans)
	}
}

func TestRegistryRender(t *testing.T) {
	r := NewRegistry()
	lat := r.Histogram("mirage_rpc_latency_seconds", "RPC latency by op.", "op", 1e-9)
	lat.Observe("test", int64(2*time.Millisecond))
	lat.Observe("test", int64(5*time.Millisecond))
	lat.Observe("integrate", int64(100*time.Microsecond))
	r.Histogram("mirage_budget_wait_seconds", "Budget wait.", "", 1e-9).With("").Observe(0)
	r.Counter("mirage_transient_retries_total", "Transient retries.", "op").With("test").Add(3)

	var b strings.Builder
	r.WritePrometheus(&b)
	out := b.String()
	for _, want := range []string{
		"# TYPE mirage_rpc_latency_seconds histogram",
		"# TYPE mirage_budget_wait_seconds histogram",
		"# TYPE mirage_transient_retries_total counter",
		`mirage_rpc_latency_seconds_bucket{op="test",le="+Inf"} 2`,
		`mirage_rpc_latency_seconds_count{op="test"} 2`,
		`mirage_rpc_latency_seconds_count{op="integrate"} 1`,
		`mirage_budget_wait_seconds_count 1`,
		`mirage_transient_retries_total{op="test"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
	// Cumulative buckets: 2ms lands at le=2^21ns, 5ms at 2^23 — the
	// final finite bucket of op=test must equal the full count.
	if !strings.Contains(out, `mirage_rpc_latency_seconds_bucket{op="test",le="0.008388608"} 2`) {
		t.Fatalf("cumulative bucket missing:\n%s", out)
	}
	// Deterministic across scrapes.
	var b2 strings.Builder
	r.WritePrometheus(&b2)
	if out != b2.String() {
		t.Fatal("two scrapes of identical state rendered differently")
	}
}

func TestRenderLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Counter("weird", "", "k").With("a\\b\"c\nd").Inc()
	var b strings.Builder
	r.WritePrometheus(&b)
	want := `weird{k="a\\b\"c\nd"} 1`
	if !strings.Contains(b.String(), want) {
		t.Fatalf("escaping: got %q, want substring %q", b.String(), want)
	}
}

// emitAll returns a Func reader emitting one sample per map entry, in
// Go's randomized map order.
func emitAll(samples map[string]float64) func(emit func(string, float64)) {
	return func(emit func(string, float64)) {
		for label, v := range samples {
			emit(label, v)
		}
	}
}

// TestFuncFamilyEscaping drives scrape-time label values through the
// Prometheus escaping rules: backslash, double quote and newline must
// render as \\, \" and \n inside the label block.
func TestFuncFamilyEscaping(t *testing.T) {
	r := NewRegistry()
	r.Func("m_esc", "Escaping.", "", "v", emitAll(map[string]float64{`back\slash`: 1, `quo"te`: 2, "new\nline": 3}))
	var b strings.Builder
	r.WritePrometheus(&b)
	text := b.String()
	for _, want := range []string{
		`m_esc{v="back\\slash"} 1`,
		`m_esc{v="quo\"te"} 2`,
		`m_esc{v="new\nline"} 3`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("missing %q in:\n%s", want, text)
		}
	}
	if strings.Contains(text, "\nline\"} 3") {
		t.Fatalf("raw newline leaked into a label value:\n%s", text)
	}
}

// TestFuncFamilyGrouping registers two families, one of them twice, and
// checks each family's samples render contiguously under a single
// HELP/TYPE header, with the first registration's help and type winning
// and an empty type defaulting to gauge.
func TestFuncFamilyGrouping(t *testing.T) {
	r := NewRegistry()
	r.Func("m_bbb", "B family.", "counter", "k", emitAll(map[string]float64{"1": 1, "0": 2}))
	r.Func("m_aaa", "A family.", "", "", emitAll(map[string]float64{"": 10}))
	r.Func("m_bbb", "ignored duplicate help", "", "k", emitAll(map[string]float64{"9": 9}))
	var b strings.Builder
	r.WritePrometheus(&b)
	want := "# HELP m_aaa A family.\n" +
		"# TYPE m_aaa gauge\n" +
		"m_aaa 10\n" +
		"# HELP m_bbb B family.\n" +
		"# TYPE m_bbb counter\n" +
		`m_bbb{k="0"} 2` + "\n" +
		`m_bbb{k="1"} 1` + "\n"
	if b.String() != want {
		t.Fatalf("got:\n%s\nwant:\n%s", b.String(), want)
	}
}

// TestFuncFamilyDeterministic registers the same families in rotated
// orders and requires byte-identical output — the property that makes
// consecutive scrapes of identical state diffable.
func TestFuncFamilyDeterministic(t *testing.T) {
	regs := []func(*Registry){
		func(r *Registry) { r.Func("m_z", "Z.", "", "", emitAll(map[string]float64{"": 1})) },
		func(r *Registry) { r.Func("m_a", "A.", "", "s", emitAll(map[string]float64{"x": 2, "b": 3})) },
		func(r *Registry) { r.Func("m_k", "K.", "counter", "", emitAll(map[string]float64{"": 4})) },
	}
	var first string
	for i := range regs {
		r := NewRegistry()
		for _, register := range append(append([]func(*Registry){}, regs[i:]...), regs[:i]...) {
			register(r)
		}
		var b strings.Builder
		r.WritePrometheus(&b)
		if i == 0 {
			first = b.String()
			continue
		}
		if b.String() != first {
			t.Fatalf("rotation %d rendered differently:\n%s\nvs:\n%s", i, b.String(), first)
		}
	}
}

func TestTraceRing(t *testing.T) {
	tr := &Tracer{MaxSpans: 4, MaxTraces: 2}
	trace := tr.Start("r1")
	root := trace.Begin(0, "rollout", "r1", "")
	for i := 0; i < 10; i++ {
		id := trace.Begin(root, "rpc", "op", "node-a")
		trace.End(id, nil)
	}
	trace.End(root, nil)
	snap := trace.Snapshot()
	if len(snap.Spans) != 4 {
		t.Fatalf("ring retained %d spans, want 4", len(snap.Spans))
	}
	if snap.Dropped != 7 {
		t.Fatalf("dropped = %d, want 7", snap.Dropped)
	}
	// Eviction: a third trace evicts the first.
	tr.Start("r2")
	tr.Start("r3")
	if tr.Get("r1") != nil {
		t.Fatal("r1 not evicted")
	}
	if tr.Get("r3") == nil {
		t.Fatal("r3 missing")
	}
}

func TestSpanContext(t *testing.T) {
	tr := &Tracer{}
	trace := tr.Start("r1")
	root := trace.Begin(0, "rollout", "r1", "")
	ctx := NewContext(t.Context(), trace, root)

	sctx, end := StartSpan(ctx, "stage", "stage 0", "")
	_, end2 := StartSpan(sctx, "test", "m1", "m1")
	end2(nil)
	end(nil)
	trace.End(root, nil)

	snap := trace.Snapshot()
	if len(snap.Spans) != 3 {
		t.Fatalf("got %d spans, want 3: %+v", len(snap.Spans), snap.Spans)
	}
	byKind := map[string]Span{}
	for _, s := range snap.Spans {
		byKind[s.Kind] = s
	}
	if byKind["stage"].Parent != byKind["rollout"].ID {
		t.Fatal("stage span not parented to rollout")
	}
	if byKind["test"].Parent != byKind["stage"].ID {
		t.Fatal("test span not parented to stage")
	}
	// No trace in ctx: everything is a no-op.
	_, endNil := StartSpan(t.Context(), "x", "", "")
	endNil(nil)
}

func TestChromeExport(t *testing.T) {
	tr := &Tracer{}
	trace := tr.Start("r9")
	root := trace.Begin(0, "rollout", "r9", "")
	st := trace.Begin(root, "stage", "stage 0", "")
	m := trace.Begin(st, "test", "m1", "m1")
	trace.End(m, nil)
	trace.End(st, nil)
	trace.End(root, nil)

	data, err := trace.Snapshot().Chrome()
	if err != nil {
		t.Fatal(err)
	}
	out := string(data)
	for _, want := range []string{
		`"traceEvents"`, `"ph":"M"`, `"ph":"X"`,
		`"mirage rollout r9"`, `"test m1"`, `"stage stage 0"`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("chrome export missing %q:\n%s", want, out)
		}
	}
}
