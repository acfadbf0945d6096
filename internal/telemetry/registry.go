package telemetry

import (
	"sync"
)

// Family is one histogram family: a metric name plus one optional label
// key, with one Histogram per label value. With an empty label key the
// family is a single histogram. scale converts recorded integer values
// to the exposition unit (1e-9 renders nanosecond timings as seconds;
// 1 renders bytes and counts as themselves).
type Family struct {
	name     string
	help     string
	labelKey string
	scale    float64

	mu     sync.RWMutex
	hs     map[string]*Histogram
	single *Histogram
}

// With returns the histogram for one label value, creating it on first
// use. The empty label key ignores value and returns the family's single
// histogram. Callers on hot paths may cache the result.
func (f *Family) With(value string) *Histogram {
	if f == nil {
		return nil
	}
	if f.labelKey == "" {
		return f.single
	}
	f.mu.RLock()
	h := f.hs[value]
	f.mu.RUnlock()
	if h != nil {
		return h
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if h = f.hs[value]; h == nil {
		h = &Histogram{}
		f.hs[value] = h
	}
	return h
}

// Observe records v against one label value.
func (f *Family) Observe(value string, v int64) { f.With(value).Observe(v) }

// CounterFamily is the counter analogue of Family.
type CounterFamily struct {
	name     string
	help     string
	labelKey string

	mu     sync.RWMutex
	cs     map[string]*Counter
	single *Counter
}

// With returns the counter for one label value, creating it on first use.
func (f *CounterFamily) With(value string) *Counter {
	if f == nil {
		return nil
	}
	if f.labelKey == "" {
		return f.single
	}
	f.mu.RLock()
	c := f.cs[value]
	f.mu.RUnlock()
	if c != nil {
		return c
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c = f.cs[value]; c == nil {
		c = &Counter{}
		f.cs[value] = c
	}
	return c
}

// funcFamily is a gauge or counter family whose samples a function
// reads at scrape time: the values live elsewhere (atomic transfer
// counters, queue lengths), so exporting them costs the hot path nothing.
type funcFamily struct {
	name     string
	help     string
	typ      string
	labelKey string
	read     func(emit func(label string, value float64))
}

// Registry holds every family a process exposes: histograms, counters,
// and the scrape-time gauge/counter families of Func. One registry is
// created by mirage-vendor (or a test) and threaded to the transport
// server, the orchestrator, each deployment controller and each rollout
// journal; GET /metrics renders it. A nil *Registry disables all
// instrumentation that hangs off it.
type Registry struct {
	mu       sync.Mutex
	hists    map[string]*Family
	counters map[string]*CounterFamily
	funcs    map[string]*funcFamily
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		hists:    map[string]*Family{},
		counters: map[string]*CounterFamily{},
		funcs:    map[string]*funcFamily{},
	}
}

// Histogram returns the named histogram family, creating it on first
// use. help, labelKey and scale are fixed by the first caller; later
// calls with the same name return the existing family unchanged.
func (r *Registry) Histogram(name, help, labelKey string, scale float64) *Family {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f := r.hists[name]; f != nil {
		return f
	}
	if scale == 0 {
		scale = 1
	}
	f := &Family{name: name, help: help, labelKey: labelKey, scale: scale}
	if labelKey == "" {
		f.single = &Histogram{}
	} else {
		f.hs = map[string]*Histogram{}
	}
	r.hists[name] = f
	return f
}

// Counter returns the named counter family, creating it on first use.
func (r *Registry) Counter(name, help, labelKey string) *CounterFamily {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if f := r.counters[name]; f != nil {
		return f
	}
	f := &CounterFamily{name: name, help: help, labelKey: labelKey}
	if labelKey == "" {
		f.single = &Counter{}
	} else {
		f.cs = map[string]*Counter{}
	}
	r.counters[name] = f
	return f
}

// Func registers a family whose samples read emits at scrape time, one
// per label value (the label is ignored when labelKey is empty). typ is
// "gauge" or "counter"; empty means gauge. A scrape in which read emits
// nothing renders no lines for the family. As with Histogram and
// Counter, the first registration of a name wins.
func (r *Registry) Func(name, help, typ, labelKey string, read func(emit func(label string, value float64))) {
	if r == nil {
		return
	}
	if typ == "" {
		typ = "gauge"
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.funcs[name] == nil {
		r.funcs[name] = &funcFamily{name: name, help: help, typ: typ, labelKey: labelKey, read: read}
	}
}
