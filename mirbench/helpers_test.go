package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/deploy"
	"repro/internal/fleetwatch"
	"repro/internal/pkgmgr"
	"repro/internal/report"
	"repro/internal/resource"
	"repro/internal/telemetry"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90},
		{1000, 99}, {9999, 99}, {10_000, 99.9}, {100_000, 99.99}, {10_000_000, 99.99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3, 10, 9, 8, 7, 6}
	for _, c := range []struct{ q, want float64 }{{0.5, 5}, {0.9, 9}, {0.99, 10}, {1, 10}, {0.01, 1}} {
		if got := quantile(xs, c.q); got != c.want {
			t.Errorf("quantile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of no samples should be 0")
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(n=4),
// the definition the benchmark's spreads are judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3.1, 2.9, 3.3, 3.0}, 2.925, 3.25},
		{[]float64{5, 1}, 0, 6},
	} {
		q1, q3 := quartiles(c.xs)
		if math.Abs(q1-c.q1) > 1e-9 || math.Abs(q3-c.q3) > 1e-9 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func TestSelfTimeOverlappingChildren(t *testing.T) {
	base := time.Unix(0, 0)
	at := func(ms int) time.Time { return base.Add(time.Duration(ms) * time.Millisecond) }
	iv := func(a, b int) interval { return interval{at(a), at(b)} }
	parent := iv(0, 100)
	for _, c := range []struct {
		name     string
		children []interval
		want     int
	}{
		{"none", nil, 100},
		{"disjoint", []interval{iv(10, 20), iv(30, 40)}, 80},
		{"overlapping", []interval{iv(10, 30), iv(20, 40)}, 70},
		{"nested", []interval{iv(10, 60), iv(20, 30)}, 50},
		{"touching", []interval{iv(10, 20), iv(20, 30)}, 80},
		{"clipped at both ends", []interval{iv(-10, 5), iv(90, 120)}, 85},
		{"outside", []interval{iv(-20, -10), iv(100, 110)}, 100},
		{"unsorted mix", []interval{iv(50, 60), iv(90, 120), iv(20, 40), iv(10, 30), iv(-10, 5)}, 45},
		{"covering", []interval{iv(-1, 101)}, 0},
	} {
		if got := selfTime(parent, c.children); got != time.Duration(c.want)*time.Millisecond {
			t.Errorf("%s: self time %v, want %dms", c.name, got, c.want)
		}
	}
}

func TestParseSteal(t *testing.T) {
	stat := []byte(`cpu  266515 0 42997 454526 5020 0 4465 37046 0 0
cpu0 131477 0 21471 228459 3145 0 1979 18997 0 0
cpu1 135038 0 21526 226066 1874 0 2486 18049 0 0
intr 1 2 3
`)
	// (18997 + 18049) ticks of 10 ms over two CPUs.
	if got, want := parseSteal(stat), 185230*time.Millisecond; got != want {
		t.Fatalf("steal %v, want %v", got, want)
	}
	if parseSteal([]byte("cpu  1 2 3\n")) != 0 {
		t.Fatal("a kernel without a steal column should give 0")
	}
}

func TestHistQuantile(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := reg.Histogram("x", "", "", 1).With("")
	for i := 0; i < 100; i++ {
		h.Observe(1000) // bucket (512, 1024]
	}
	got := histQuantile(h.Snapshot(), 0.5)
	if got <= 512 || got > 1024 {
		t.Fatalf("p50 = %g, want within the (512, 1024] bucket", got)
	}
	if histQuantile(telemetry.HistSnapshot{}, 0.5) != 0 {
		t.Fatal("empty histogram should give 0")
	}
}

func TestVerdict(t *testing.T) {
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	faster := scale(parent, 0.8)
	// Eight wins in ten pairs is short of nine tenths.
	eightWins := append(scale(parent[:8], 0.8), 103, 104)
	noisy := []float64{60, 140, 100, 70, 130, 100, 65, 135, 100, 100}
	for _, c := range []struct {
		name           string
		parent, change []float64
		lower          bool
		bound          float64
		want           string
	}{
		{"faster", parent, faster, true, 0.1, improved},
		{"eight of ten", parent, eightWins, true, 0.5, same},
		{"slower beyond bound", parent, scale(parent, 1.2), true, 0.1, regressed},
		{"slower within bound", parent, scale(parent, 1.05), true, 0.1, same},
		{"higher is better", parent, faster, false, 0.1, regressed},
		{"spread wider than bound", parent, noisy, true, 0.1, unresolved},
		{"noisy but all better", noisy, scale(noisy, 0.3), true, 0.1, improved},
		{"no bound, worse", parent, scale(parent, 1.2), true, 0, regressed},
		{"no bound, identical", parent, parent, true, 0, same},
		{"no bound, undecided", parent, eightWins, true, 0, unresolved},
		{"no runs", nil, parent, true, 0.1, unresolved},
		{"one pair", parent[:1], faster[:1], true, 0.1, unresolved},
		{"nine pairs", parent[:9], faster[:9], true, 0.1, unresolved},
	} {
		if got := verdict(c.parent, c.change, c.lower, c.bound); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

// TestPairBySeed checks that runs pair by seed, not by position: a seed
// that failed its checks on one side, or ran on one side only, drops out
// of the pairs instead of shifting every later pair.
func TestPairBySeed(t *testing.T) {
	run := func(seed int64, v float64, correct bool) taggedRun {
		return taggedRun{Workload: "w", Seed: seed, Result: resultLine{Correct: correct,
			Metrics: map[string]metricValue{"m": {Value: v}}}}
	}
	var parent, change []taggedRun
	for s := int64(1); s <= 11; s++ {
		parent = append(parent, run(s, float64(100+s), true))
		// The change is faster on every seed, except that seed 3 failed
		// its checks.
		change = append(change, run(s, float64(90+s), s != 3))
	}
	parent = append(parent, run(1009, 500, true)) // held-back seed, parent side only
	ps, pbad := series(parent, "w", false, "m")
	cs, cbad := series(change, "w", false, "m")
	if pbad != 0 || cbad != 1 {
		t.Fatalf("incorrect runs: parent %d, change %d; want 0, 1", pbad, cbad)
	}
	p, c := paired(ps, cs)
	if len(p) != 10 {
		t.Fatalf("%d pairs, want 10 (seeds 1-11 without 3)", len(p))
	}
	for i := range p {
		if p[i]-c[i] != 10 {
			t.Fatalf("pair %d compares %g with %g: not the same seed", i, p[i], c[i])
		}
	}
	// Every pair won, and the gap of 10 exceeds the parent's IQR (5.75).
	if got := verdict(p, c, true, 0.1); got != improved {
		t.Fatalf("verdict %s, want improved", got)
	}
	// One seed short of ten pairs is unresolved however clear the gap.
	p, c = paired(ps, map[int64]float64{1: 1, 2: 1, 4: 1, 5: 1, 6: 1, 7: 1, 8: 1, 9: 1, 10: 1})
	if got := verdict(p, c, true, 0.1); got != unresolved {
		t.Fatalf("nine pairs: verdict %s, want unresolved", got)
	}
}

// flakyNode fails its first test call transiently, like an agent whose
// channel dropped.
type flakyNode struct {
	name  string
	tests int
}

func (n *flakyNode) Name() string { return n.name }

func (n *flakyNode) TestUpgrade(_ context.Context, up *pkgmgr.Upgrade) (*report.Report, error) {
	n.tests++
	if n.tests == 1 {
		return nil, fmt.Errorf("channel dropped: %w", deploy.ErrTransient)
	}
	return &report.Report{UpgradeID: up.ID, Machine: n.name, Success: true}, nil
}

func (n *flakyNode) Integrate(context.Context, *pkgmgr.Upgrade) error { return nil }

// TestCountingNodeRetries drives the wrapper through the controller's own
// retry loop: the transient failure is one error and its retry one retry.
func TestCountingNodeRetries(t *testing.T) {
	ops := &opCounts{}
	spans := newSpanLog(16)
	flaky := newCountingNode(&flakyNode{name: "a"}, ops, spans)
	steady := newCountingNode(&flakyNode{name: "b", tests: 1}, ops, spans)
	ctl := deploy.NewController(report.New(), nil)
	ctl.Sleep = func(time.Duration) {}
	up := &pkgmgr.Upgrade{ID: "app-2.0", Pkg: &pkgmgr.Package{Name: "app", Version: "2.0"}}
	out, err := ctl.Deploy(context.Background(), deploy.PolicyBalanced, up,
		[]*deploy.Cluster{{ID: deploy.ClusterName(0), Distance: 1,
			Representatives: []deploy.Node{flaky}, Others: []deploy.Node{steady}}})
	if err != nil || out.Integrated() != 2 {
		t.Fatalf("deploy: %v, integrated %d", err, out.Integrated())
	}
	// a: test (fails), test (retry), integrate; b: test, integrate.
	if a, e, r := ops.attempts.Load(), ops.errors.Load(), ops.retries.Load(); a != 5 || e != 1 || r != 1 {
		t.Fatalf("attempts=%d errors=%d retries=%d, want 5, 1, 1", a, e, r)
	}
	if flaky.integrated.IsZero() || steady.integrated.IsZero() {
		t.Fatal("integrate return not stamped")
	}
	if n := len(spans.of("test-rpc")); n != 3 {
		t.Fatalf("%d test-rpc spans, want 3", n)
	}
	// A fixed release is a new upgrade, not a retry.
	flaky.attempt("test", "app-2.1")
	if ops.retries.Load() != 1 {
		t.Fatal("a new upgrade ID counted as a retry")
	}
}

func TestSpanLogCountsDropped(t *testing.T) {
	l := newSpanLog(2)
	for i := 0; i < 5; i++ {
		l.record("x", "", time.Now(), nil)
	}
	if len(l.of("x")) != 2 || l.Dropped() != 3 {
		t.Fatalf("kept %d, dropped %d; want 2, 3", len(l.of("x")), l.Dropped())
	}
	var nilLog *spanLog
	nilLog.record("x", "", time.Now(), nil)
	if nilLog.Dropped() != 0 || nilLog.of("x") != nil {
		t.Fatal("nil span log should record nothing")
	}
}

func TestSamePartition(t *testing.T) {
	view := fleetwatch.FleetView{Clusters: []fleetwatch.ViewCluster{
		{Machines: []string{"a", "b"}}, {Machines: []string{"c"}},
	}}
	if err := samePartition(view, []*cluster.Cluster{{Machines: []string{"c"}}, {Machines: []string{"b", "a"}}}, 3); err != nil {
		t.Fatalf("equal partitions: %v", err)
	}
	if err := samePartition(view, []*cluster.Cluster{{Machines: []string{"a", "b", "c"}}}, 3); err == nil {
		t.Fatal("a merged partition passed")
	}
	if err := samePartition(view, []*cluster.Cluster{{Machines: []string{"a", "b"}}}, 3); err == nil {
		t.Fatal("a partition missing a machine passed")
	}
}

// TestDriftFleetDeterministic checks the generator gives the same inputs
// for the same seed and that its mirror agrees with the deltas it emits.
func TestDriftFleetDeterministic(t *testing.T) {
	gen := func(seed int64) ([]delta, *driftFleet) {
		rng := rand.New(rand.NewSource(seed))
		f := newDriftFleet(rng)
		var ds []delta
		for i := 0; i < 200; i++ {
			ds = append(ds, f.next(rng, i))
		}
		return ds, f
	}
	a, fa := gen(7)
	b, _ := gen(7)
	for i := range a {
		if a[i].machine != b[i].machine || a[i].sig != b[i].sig {
			t.Fatalf("delta %d differs between runs of one seed", i)
		}
	}
	last := a[len(a)-1]
	for i, mf := range fa.machines {
		if mf.Name == last.machine && fa.cur[i].Signature() != last.sig {
			t.Fatal("mirror disagrees with the last delta's signature")
		}
	}
}

// TestDriftMix checks the fixed drift mix: every window of deltas holds
// the same share of parsed-item toggles, and a Balanced rollout half done
// has gated half the live fleet's clusters.
func TestDriftMix(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	f := newDriftFleet(rng)
	toggles := 0
	for i := 0; i < stormSize; i++ {
		if isParsed(f.next(rng, 1+i)) {
			toggles++
		}
	}
	if toggles != stormSize/toggleEvery {
		t.Fatalf("%d toggles in %d deltas, want %d", toggles, stormSize, stormSize/toggleEvery)
	}
	mon := fleetwatch.NewMonitor(cluster.BuildSnapshot(driftConfig, f.machines), nil)
	gated := midRollout(mon)
	clusters := len(mon.View().Clusters)
	if len(gated) != clusters/2 {
		t.Fatalf("%d gated clusters of %d, want half", len(gated), clusters)
	}
}

func isParsed(dl delta) bool {
	for _, it := range append(dl.added, dl.removed...) {
		if it.Kind == resource.Parsed {
			return true
		}
	}
	return false
}
