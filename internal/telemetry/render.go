package telemetry

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// EscapeLabel escapes a label value per the Prometheus text exposition
// format: backslash, double-quote and newline. (strconv.Quote is close
// but emits Go escapes like \t that Prometheus parsers reject.)
func EscapeLabel(s string) string {
	if !strings.ContainsAny(s, "\\\"\n") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 8)
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// formatBound renders a bucket's upper bound in the exposition unit.
func formatBound(bound int64, scale float64) string {
	if scale == 1 {
		return strconv.FormatInt(bound, 10)
	}
	return strconv.FormatFloat(float64(bound)*scale, 'g', -1, 64)
}

// WritePrometheus renders every family in the registry in the Prometheus
// text exposition format: histogram families as cumulative `_bucket`
// samples with `le` bounds plus `_sum` and `_count`, counter and Func
// families as plain samples. Families render sorted by name and label
// values sorted within a family, so consecutive scrapes of the same
// state are byte-identical however the families were registered.
func (r *Registry) WritePrometheus(w io.Writer) {
	if r == nil {
		return
	}
	type family struct {
		name  string
		write func(io.Writer)
	}
	r.mu.Lock()
	fams := make([]family, 0, len(r.hists)+len(r.counters)+len(r.funcs))
	for _, f := range r.hists {
		fams = append(fams, family{f.name, f.write})
	}
	for _, f := range r.counters {
		fams = append(fams, family{f.name, f.write})
	}
	for _, f := range r.funcs {
		fams = append(fams, family{f.name, f.write})
	}
	r.mu.Unlock()

	sort.Slice(fams, func(i, j int) bool { return fams[i].name < fams[j].name })
	for _, f := range fams {
		f.write(w)
	}
}

func (f *Family) write(w io.Writer) {
	if f.help != "" {
		fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help)
	}
	fmt.Fprintf(w, "# TYPE %s histogram\n", f.name)
	if f.labelKey == "" {
		f.writeOne(w, "", f.single.Snapshot())
		return
	}
	f.mu.RLock()
	values := make([]string, 0, len(f.hs))
	for v := range f.hs {
		values = append(values, v)
	}
	f.mu.RUnlock()
	sort.Strings(values)
	for _, v := range values {
		f.writeOne(w, v, f.With(v).Snapshot())
	}
}

// writeOne emits the cumulative bucket series for one label value.
// Empty buckets below the first and above the last observation are
// elided (legal: buckets are cumulative and +Inf always closes the
// series), keeping 40-bucket families compact on the wire.
func (f *Family) writeOne(w io.Writer, value string, s HistSnapshot) {
	lo, hi := -1, -1
	for i, c := range s.Counts {
		if c != 0 {
			if lo < 0 {
				lo = i
			}
			hi = i
		}
	}
	labels := func(extra string) string {
		var parts []string
		if f.labelKey != "" {
			parts = append(parts, f.labelKey+`="`+EscapeLabel(value)+`"`)
		}
		if extra != "" {
			parts = append(parts, extra)
		}
		if len(parts) == 0 {
			return ""
		}
		return "{" + strings.Join(parts, ",") + "}"
	}
	cum := int64(0)
	if lo >= 0 {
		for i := lo; i <= hi; i++ {
			cum += s.Counts[i]
			fmt.Fprintf(w, "%s_bucket%s %d\n", f.name,
				labels(fmt.Sprintf("le=%q", formatBound(1<<uint(i), f.scale))), cum)
		}
	}
	fmt.Fprintf(w, "%s_bucket%s %d\n", f.name, labels(`le="+Inf"`), cum+s.Inf)
	if f.scale == 1 {
		fmt.Fprintf(w, "%s_sum%s %d\n", f.name, labels(""), s.Sum)
	} else {
		fmt.Fprintf(w, "%s_sum%s %s\n", f.name, labels(""),
			strconv.FormatFloat(float64(s.Sum)*f.scale, 'g', -1, 64))
	}
	fmt.Fprintf(w, "%s_count%s %d\n", f.name, labels(""), s.Count)
}

func (f *CounterFamily) write(w io.Writer) {
	if f.help != "" {
		fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help)
	}
	fmt.Fprintf(w, "# TYPE %s counter\n", f.name)
	if f.labelKey == "" {
		fmt.Fprintf(w, "%s %d\n", f.name, f.single.Value())
		return
	}
	f.mu.RLock()
	values := make([]string, 0, len(f.cs))
	for v := range f.cs {
		values = append(values, v)
	}
	f.mu.RUnlock()
	sort.Strings(values)
	for _, v := range values {
		fmt.Fprintf(w, "%s{%s=\"%s\"} %d\n", f.name, f.labelKey, EscapeLabel(v), f.With(v).Value())
	}
}

func (f *funcFamily) write(w io.Writer) {
	type sample struct {
		label string
		value float64
	}
	var samples []sample
	f.read(func(label string, value float64) { samples = append(samples, sample{label, value}) })
	if len(samples) == 0 {
		return
	}
	sort.SliceStable(samples, func(i, j int) bool { return samples[i].label < samples[j].label })
	if f.help != "" {
		fmt.Fprintf(w, "# HELP %s %s\n", f.name, f.help)
	}
	fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ)
	for _, s := range samples {
		v := strconv.FormatFloat(s.value, 'g', -1, 64)
		if f.labelKey == "" {
			fmt.Fprintf(w, "%s %s\n", f.name, v)
		} else {
			fmt.Fprintf(w, "%s{%s=\"%s\"} %s\n", f.name, f.labelKey, EscapeLabel(s.label), v)
		}
	}
}
