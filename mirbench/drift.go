package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/cluster"
	"repro/internal/fleetwatch"
	"repro/internal/resource"
	"repro/internal/staging"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// drift-10k: a seeded 10,000-machine synthetic fleet is clustered once
// into a fleetwatch.Monitor; then an open-loop stream of single-item
// profile deltas is folded at a fixed rate while one reader takes
// Monitor.View at a fixed rate; then churn storms are folded back to
// back. No transport and no journal are involved.
//
// The open loop is timed twice: each fold from its due time on the wall
// clock (what a watch-mode agent waits), and each fold's CPU on the
// writer's own thread (what it costs, unmoved by a hypervisor taking the
// CPU away).

const (
	driftMachines = 10_000
	driftGroups   = 100 // parsed groups
	driftBands    = 5   // content bands per group
	foldRate      = 1000
	viewEvery     = 50 * time.Millisecond
	spinWindow    = 3 * time.Millisecond // the generator spins this close to a due time
	stormSize     = 2000
	storms        = 6
	setupReps     = 5
	// toggleEvery: one delta in this many toggles a parsed item and moves
	// its machine to another cluster; the rest are BenchmarkDrift's
	// content churn. A fixed period, not a draw, so every run folds the
	// same mix: 2% re-placing folds, enough for hundreds of migrated and
	// drifted folds per run, few enough that the gated p50 and p90 both
	// fall among the content folds instead of on the seam between the two.
	toggleEvery = 50
)

var driftConfig = cluster.Config{Diameter: 4}

// delta is one agent push: the items that entered and left the machine's
// diff, and the signature of the whole diff after the change.
type delta struct {
	machine        string
	added, removed []resource.Item
	sig            uint64
}

// driftFleet is the benchmark's mirror of the fleet: the machines as
// first profiled, and each machine's current diff set.
type driftFleet struct {
	machines []cluster.MachineFingerprint
	group    []int
	cur      []*resource.Set
	churn    []*resource.Item // each machine's current churn item, if any
	toggled  []bool           // each machine carries its group's extra parsed item
}

// newDriftFleet draws each machine's parsed group and content band from
// rng: group g carries lib<g> at g%3+1 versions, band b six content
// chunks that no other band shares.
func newDriftFleet(rng *rand.Rand) *driftFleet {
	d := &driftFleet{}
	for i := 0; i < driftMachines; i++ {
		g, b := rng.Intn(driftGroups), rng.Intn(driftBands)
		parsed := resource.NewSet(4)
		for p := 0; p <= g%3; p++ {
			parsed.Add(resource.NewParsed(uint64(g), "pkg", fmt.Sprintf("lib%d", g), fmt.Sprintf("v%d", p)))
		}
		content := resource.NewSet(8)
		for c := 0; c < 6; c++ {
			content.Add(resource.NewContent(fmt.Sprintf("data%d.bin", b*10+c), uint64(g*1000+b)))
		}
		mf := cluster.MachineFingerprint{Name: fmt.Sprintf("m%05d", i), ParsedDiff: parsed, ContentDiff: content, AppSet: "app"}
		d.machines = append(d.machines, mf)
		d.group = append(d.group, g)
		d.cur = append(d.cur, union(mf))
	}
	d.churn = make([]*resource.Item, driftMachines)
	d.toggled = make([]bool, driftMachines)
	return d
}

func union(mf cluster.MachineFingerprint) *resource.Set {
	s := resource.NewSet(mf.ParsedDiff.Len() + mf.ContentDiff.Len())
	s.AddAll(mf.ParsedDiff)
	s.AddAll(mf.ContentDiff)
	return s
}

// next draws the seq-th delta's machine and applies the delta to the
// mirror. Every toggleEvery-th delta adds or removes the machine's
// group's extra parsed item, which moves it to another cluster; the rest
// replace its churn chunk, and it stays in its cluster.
func (d *driftFleet) next(rng *rand.Rand, seq int) delta {
	i := rng.Intn(driftMachines)
	set := d.cur[i]
	dl := delta{machine: d.machines[i].Name}
	if seq%toggleEvery == toggleEvery-1 {
		g := d.group[i]
		it := resource.NewParsed(uint64(g), "pkg", fmt.Sprintf("lib%d", g), fmt.Sprintf("v%d", g%3+1))
		if d.toggled[i] {
			set.Remove(it)
			dl.removed = []resource.Item{it}
		} else {
			set.Add(it)
			dl.added = []resource.Item{it}
		}
		d.toggled[i] = !d.toggled[i]
	} else {
		it := resource.NewContent("churn.bin", uint64(1_000_000+seq))
		if old := d.churn[i]; old != nil {
			set.Remove(*old)
			dl.removed = []resource.Item{*old}
		}
		set.Add(it)
		dl.added = []resource.Item{it}
		d.churn[i] = &it
	}
	dl.sig = set.Signature()
	return dl
}

// final is the fleet as it stands after every delta.
func (d *driftFleet) final() []cluster.MachineFingerprint {
	out := make([]cluster.MachineFingerprint, len(d.machines))
	for i, mf := range d.machines {
		out[i] = cluster.MachineFingerprint{Name: mf.Name, AppSet: mf.AppSet,
			ParsedDiff: d.cur[i].OfKind(resource.Parsed), ContentDiff: d.cur[i].OfKind(resource.Content)}
	}
	return out
}

// wireBytes is the size of the frame a watch-mode agent would send for
// dl: the benchmark's own encoding of the delta in the program's wire
// types (transport.Frame, ProfileDeltaReq, ItemsToWire), as one JSON
// line. No public path sends a delta without a socket
// (Agent.CheckDrift dials the vendor over TCP), so the figure moves with
// the wire types and their encoding, but not with the agent's own delta
// construction or its frame writer.
func wireBytes(dl delta) (int, error) {
	req := &transport.ProfileDeltaReq{Machine: dl.machine, App: "app", AppSet: "app", Sig: dl.sig,
		Added: wireItems(dl.added), Removed: wireItems(dl.removed)}
	b, err := json.Marshal(transport.Frame{ID: 1, Op: transport.OpProfileDelta, Delta: req})
	return len(b) + 1, err // frames are newline-terminated
}

func wireItems(items []resource.Item) []transport.WireItem {
	if len(items) == 0 {
		return nil
	}
	s := resource.NewSet(len(items))
	for _, it := range items {
		s.Add(it)
	}
	return transport.ItemsToWire(s)
}

// midRollout names one member of each cluster that has passed its gate
// when a Balanced rollout over the live fleet's own clusters is half
// done: the plan (staging.BuildPlan over Monitor.View's clusters) visits
// cluster after cluster, and the first half of them are gated. Drift is
// then measured against the fleet as a rollout in flight sees it.
func midRollout(mon *fleetwatch.Monitor) []string {
	clusters := mon.View().Clusters
	refs := make([]staging.ClusterRef, len(clusters))
	member := make(map[string]string, len(clusters))
	for i, c := range clusters {
		refs[i] = staging.ClusterRef{Name: c.Name, Distance: c.Distance}
		member[c.Name] = c.Machines[0]
	}
	var gated []string
	for _, w := range staging.BuildPlan(staging.PolicyBalanced, refs, 0).Waves() {
		if len(gated) == len(clusters)/2 {
			break
		}
		if m, ok := member[w.Cluster]; ok {
			gated = append(gated, m)
			delete(member, w.Cluster)
		}
	}
	return gated
}

func apply(mon *fleetwatch.Monitor, dl delta) (fleetwatch.Event, error) {
	return mon.ApplyDelta(dl.machine, "app", dl.added, dl.removed, dl.sig, false)
}

// waitUntil sleeps until shortly before t, then spins, yielding to
// other goroutines, so the generator sends on time: a sleep overshoots
// by up to a few milliseconds, longer than the gap between deltas.
func waitUntil(t time.Time) {
	if d := time.Until(t) - spinWindow; d > 0 {
		time.Sleep(d)
	}
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

func runDrift(_ context.Context, cfg config) (*result, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	fleet := newDriftFleet(rng)
	stream := make([]delta, 1+foldRate*cfg.seconds+storms*stormSize)
	for i := range stream {
		stream[i] = fleet.next(rng, i)
	}
	res := newResult()
	var reg *telemetry.Registry
	var spans *spanLog
	if cfg.trace {
		reg, spans = telemetry.NewRegistry(), newSpanLog(maxSpans)
	}
	countClass := map[fleetwatch.Class]int{}
	var resyncs int
	fold := func(mon *fleetwatch.Monitor, dl delta) {
		ev, err := apply(mon, dl)
		res.attempted++
		var rs *fleetwatch.ErrResync
		switch {
		case errors.As(err, &rs):
			resyncs++
			res.failed++
		case err != nil:
			res.fail(err)
		default:
			countClass[ev.Class]++
		}
	}

	// Set-up, repeated: cluster the fleet into a monitor and fold the
	// first delta, which builds the snapshot's incremental index.
	var setup, firstFold []float64
	var mon *fleetwatch.Monitor
	for r := 0; r < setupReps; r++ {
		t0 := time.Now()
		mon = fleetwatch.NewMonitor(cluster.BuildSnapshot(driftConfig, fleet.machines), reg)
		t1 := spans.record("snapshot", "", t0, nil)
		if _, err := apply(mon, stream[0]); err != nil {
			return res.fail(fmt.Errorf("first fold: %w", err)), nil
		}
		t2 := spans.record("first-fold", stream[0].machine, t1, nil)
		setup = append(setup, secs(t2.Sub(t0)))
		firstFold = append(firstFold, ms(t2.Sub(t1)))
	}
	res.attempted++
	mon.MarkGated(midRollout(mon))

	// Open loop: delta i is due at i/foldRate; each fold is timed from
	// its due time, so a stall also delays the folds queued behind it.
	open := stream[1 : 1+foldRate*cfg.seconds]
	var views, viewCPU []time.Duration
	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(1)
	go func() {
		defer reader.Done()
		runtime.LockOSThread() // so threadCPU is this reader's
		defer runtime.UnlockOSThread()
		tick := time.NewTicker(viewEvery)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				t0, c0 := time.Now(), threadCPU()
				mon.View()
				viewCPU = append(viewCPU, threadCPU()-c0)
				views = append(views, spans.record("view", "", t0, nil).Sub(t0))
			}
		}
	}()
	// The writer runs on its own thread, so each fold's thread CPU is the
	// fold's: the generator's spinning between deltas is not in it.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	lat := make([]float64, len(open))
	foldCPU := make([]float64, len(open))
	var genLag time.Duration
	start := time.Now().Add(time.Millisecond)
	for i, dl := range open {
		due := start.Add(time.Duration(i) * time.Second / foldRate)
		waitUntil(due)
		sent, c0 := time.Now(), threadCPU()
		if late := sent.Sub(due); late > genLag {
			genLag = late
		}
		fold(mon, dl)
		foldCPU[i] = ms(threadCPU() - c0)
		lat[i] = ms(spans.record("fold", dl.machine, sent, nil).Sub(due))
	}
	runtime.ReadMemStats(&mem1)
	close(stop)
	reader.Wait()
	classes := map[fleetwatch.Class]int{}
	for k, v := range countClass {
		classes[k] = v
	}

	// Storms: stormSize deltas folded back to back, the time for the live
	// view to absorb a burst of fleet churn. In a traced run odd storms
	// are traced and even ones plain, for the overhead ratio.
	var stormCPU, stormWall, stormLessSteal, tracedCPU []float64
	rest := stream[1+len(open):]
	for s := 0; s < storms; s++ {
		batch := rest[s*stormSize : (s+1)*stormSize]
		traced := cfg.trace && s%2 == 1
		t0, c0, st0 := time.Now(), cpuTime(), stealTime()
		for _, dl := range batch {
			if traced {
				f0 := time.Now()
				fold(mon, dl)
				spans.record("fold", dl.machine, f0, nil)
			} else {
				fold(mon, dl)
			}
		}
		if c := secs(cpuTime() - c0); traced {
			tracedCPU = append(tracedCPU, c)
		} else {
			stormCPU = append(stormCPU, c)
			wall := time.Since(t0)
			stormWall = append(stormWall, secs(wall))
			stormLessSteal = append(stormLessSteal, secs(wall-(stealTime()-st0)))
		}
	}
	if !res.correct {
		return res, nil
	}

	// Correctness: the folded clustering partitions the fleet exactly as a
	// from-scratch run over the final fleet does.
	t0 := time.Now()
	full := cluster.Run(driftConfig, fleet.final())
	spans.record("cluster-run", "", t0, nil)
	if err := samePartition(mon.View(), full, driftMachines); err != nil {
		return res.fail(err), nil
	}

	if cfg.trace {
		t0 := time.Now()
		cluster.Run(driftConfig, fleet.machines)
		runS := secs(spans.record("cluster-run", "", t0, nil).Sub(t0))
		res.metrics = map[string]float64{
			"cluster.run_s":             runS,
			"cluster.first_fold_ms":     median(firstFold),
			"fleetwatch.stable":         float64(classes[fleetwatch.ClassStable]),
			"fleetwatch.migrated":       float64(classes[fleetwatch.ClassMigrated]),
			"fleetwatch.drifted":        float64(classes[fleetwatch.ClassDrifted]),
			"fleetwatch.resyncs":        float64(resyncs),
			"fleetwatch.gen_lag_ms.max": ms(genLag),
			"go.alloc_bytes_per_item":   float64(mem1.TotalAlloc-mem0.TotalAlloc) / float64(len(open)),
			"go.gc_cycles":              float64(mem1.NumGC - mem0.NumGC),
			"wall.converge_s":           median(stormWall),
			"wall.item_p50_ms":          quantile(lat, 0.50),
			"wall.item_p90_ms":          quantile(lat, 0.90),
			"wall.read_p90_ms":          quantile(durations(views, ms), 0.90),
			"trace.overhead_ratio":      median(tracedCPU) / median(stormCPU),
			"trace.spans_dropped":       float64(spans.Dropped()),
		}
		return res, spans.writeChrome(cfg.tracePath(), cfg.workload)
	}

	var wire float64
	for _, dl := range open {
		n, err := wireBytes(dl)
		if err != nil {
			return nil, err
		}
		wire += float64(n)
	}
	res.metrics = map[string]float64{
		"setup_s":             median(setup),
		"converge_s":          median(stormLessSteal),
		"converge_cpu_s":      median(stormCPU),
		"item_p50_cpu_ms":     quantile(foldCPU, 0.50),
		"item_p90_cpu_ms":     quantile(foldCPU, 0.90),
		"read_p50_ms":         quantile(durations(views, ms), 0.50),
		"read_p50_cpu_ms":     quantile(durations(viewCPU, ms), 0.50),
		"wire_bytes_per_item": wire / float64(len(open)),
		"live_heap_mb":        liveHeapMB(),
	}
	runtime.KeepAlive(mon)
	res.samples = map[string]int{"setup": len(setup), "converge": len(stormCPU), "item": len(foldCPU), "read": len(viewCPU)}
	return res, nil
}

// samePartition checks that the view's clusters group the machines
// exactly as the from-scratch clusters do: every machine in one cluster,
// and two machines together in one clustering iff together in the other.
func samePartition(v fleetwatch.FleetView, full []*cluster.Cluster, machines int) error {
	label := func(groups [][]string) (map[string]string, error) {
		out := make(map[string]string, machines)
		for _, g := range groups {
			if len(g) == 0 {
				continue
			}
			rep := g[0]
			for _, name := range g {
				if name < rep {
					rep = name
				}
			}
			for _, name := range g {
				if _, dup := out[name]; dup {
					return nil, fmt.Errorf("%s in two clusters", name)
				}
				out[name] = rep
			}
		}
		if len(out) != machines {
			return nil, fmt.Errorf("%d machines clustered, want %d", len(out), machines)
		}
		return out, nil
	}
	var live, scratch [][]string
	for _, c := range v.Clusters {
		live = append(live, c.Machines)
	}
	for _, c := range full {
		scratch = append(scratch, c.Machines)
	}
	a, err := label(live)
	if err != nil {
		return fmt.Errorf("folded view: %w", err)
	}
	b, err := label(scratch)
	if err != nil {
		return fmt.Errorf("from-scratch run: %w", err)
	}
	for name, rep := range a {
		if b[name] != rep {
			return fmt.Errorf("%s is clustered with %s after folding but with %s from scratch", name, rep, b[name])
		}
	}
	return nil
}
