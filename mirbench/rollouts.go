package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"repro/internal/deploy"
	"repro/internal/distrib"
	"repro/internal/orchestrator"
	"repro/internal/pkgmgr"
	"repro/internal/rollout"
	"repro/internal/staging"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// The rollout workloads, fleet-10k and swarm-100, each run a loop of
// iterations: build a fresh fleet against a fresh vendor server, run one
// journaled Balanced rollout of a fresh release through the
// orchestrator, check it, tear the fleet down. A fresh fleet per
// iteration makes every rollout start from the same state (caches,
// peer eligibility, journal) and keeps memory flat however long the run.

const (
	statusEvery = 50 * time.Millisecond // the operator polls Status at 20 Hz
	budgetEvery = time.Millisecond      // traced runs sample the budget at 1 kHz
	parallelism = 64                    // controller pool; the budget caps in-flight RPCs
	maxSpans    = 1 << 18               // span bound per traced iteration
)

// fleetShape describes one rollout workload.
type fleetShape struct {
	members, clusters int
	swarm             bool // real agents with peer servers; else sim agents
}

// liveFleet is one fleet registered with its own vendor server over
// in-process pipes (Server.ServeConn), so the control channels use no
// sockets. The server's own listener is opened (transport.ListenWith
// needs one) but no agent dials it.
type liveFleet struct {
	srv      *transport.Server
	names    []string
	setup    time.Duration // construction plus registration
	register time.Duration // registration alone
	sim      *transport.SimFleet
	agents   []*transport.Agent
	served   sync.WaitGroup
}

func buildFleet(shape fleetShape, reg *telemetry.Registry, rng *rand.Rand) (*liveFleet, error) {
	srv, err := transport.ListenWith("127.0.0.1:0", transport.ListenOpts{MaxPending: 4096})
	if err != nil {
		return nil, err
	}
	srv.Telemetry = reg
	f := &liveFleet{srv: srv}
	t0 := time.Now()
	reg0 := t0
	if shape.swarm {
		binary := payload(rng, 64<<10)
		for i := 0; i < shape.members; i++ {
			a := transport.NewAgent(swarmMachine(fmt.Sprintf("s%03d", i), binary))
			if _, err := a.ServePeers("127.0.0.1:0"); err != nil {
				f.close()
				return nil, err
			}
			f.agents = append(f.agents, a)
			f.names = append(f.names, a.M.Name)
		}
		reg0 = time.Now()
		for _, a := range f.agents {
			agentEnd, vendorEnd := net.Pipe()
			if err := srv.ServeConn(vendorEnd); err != nil {
				agentEnd.Close()
				f.close()
				return nil, err
			}
			f.served.Add(1)
			go func() {
				defer f.served.Done()
				_ = a.ServeConn(agentEnd) // returns when close tears the pipe down
			}()
		}
	} else {
		f.sim, err = transport.StartSimFleet(shape.members, transport.SimOptions{Prefix: "m", Server: srv})
		if err != nil {
			srv.Close()
			return nil, err
		}
		f.names = f.sim.Names()
	}
	if got := srv.WaitForAgents(shape.members, 2*time.Minute); got != shape.members {
		f.close()
		return nil, fmt.Errorf("only %d/%d agents registered", got, shape.members)
	}
	f.setup = time.Since(t0)
	f.register = time.Since(reg0)
	return f, nil
}

func (f *liveFleet) close() {
	if f.sim != nil {
		f.sim.Close()
	}
	f.srv.Close()
	for _, a := range f.agents {
		a.ClosePeers()
	}
	f.served.Wait()
}

// assignment is the seeded cluster layout: member indices per cluster
// (the first is the representative) and each cluster's distance.
type assignment struct {
	members  [][]int
	distance []int
}

func assign(shape fleetShape, rng *rand.Rand) assignment {
	order := rng.Perm(shape.members)
	dist := rng.Perm(shape.clusters)
	per := shape.members / shape.clusters
	a := assignment{}
	for c := 0; c < shape.clusters; c++ {
		a.members = append(a.members, order[c*per:(c+1)*per])
		a.distance = append(a.distance, dist[c]+1)
	}
	return a
}

// clusters builds the clusters of deployment over f, every member
// behind a countingNode.
func (a assignment) clusters(f *liveFleet, ops *opCounts, spans *spanLog) ([]*deploy.Cluster, map[string]*countingNode) {
	nodes := make(map[string]*countingNode, len(f.names))
	var out []*deploy.Cluster
	for c, idx := range a.members {
		cl := &deploy.Cluster{ID: deploy.ClusterName(c), Distance: a.distance[c]}
		for i, m := range idx {
			n := newCountingNode(f.srv.Node(f.names[m]), ops, spans)
			nodes[n.Name()] = n
			if i == 0 {
				cl.Representatives = append(cl.Representatives, n)
			} else {
				cl.Others = append(cl.Others, n)
			}
		}
		out = append(out, cl)
	}
	return out, nodes
}

// stamped is a journal record as it arrived on Handle.Events.
type stamped struct {
	rec rollout.Record
	at  time.Time
	cpu time.Duration // process CPU time at arrival
}

// rolloutRun is what one rollout produced.
type rolloutRun struct {
	start, end     time.Time
	cpu0, cpu1     time.Duration
	steal0, steal1 time.Duration // stealTime at start and end
	out            *deploy.Outcome
	state          orchestrator.State
	events         []stamped
	status         []time.Duration // operator Status latencies
	statusCPU      []time.Duration // and the operator thread's CPU per call
	stats          transport.Stats // server counters over the rollout
	alloc          uint64          // bytes allocated during the rollout
	gcs            uint32
	budget         *deploy.Budget
	saturated      float64 // share of budget samples at capacity (traced)
	journal        string
}

// driveRollout runs one journaled Balanced rollout through the
// orchestrator while an operator goroutine polls Status and another
// stamps every record arriving on Handle.Events.
func driveRollout(ctx context.Context, f *liveFleet, shape fleetShape, up *pkgmgr.Upgrade, clusters []*deploy.Cluster,
	journal string, reg *telemetry.Registry, spans *spanLog) (*rolloutRun, error) {
	orch := orchestrator.New("")
	orch.Budget = deploy.NewBudget(runtime.NumCPU())
	orch.Telemetry = reg
	spec := orchestrator.Spec{
		Policy: deploy.PolicyBalanced, Upgrade: up, Clusters: clusters, Journal: journal,
		Configure: func(ctl *deploy.Controller) {
			ctl.Parallelism = parallelism
			ctl.Transfer = f.srv.TransferSnapshot
			if shape.swarm {
				ctl.GatedMembers = f.srv.MarkPeerEligible
			}
		},
	}
	run := &rolloutRun{budget: orch.Budget, journal: journal}
	var mem0 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	stats0 := f.srv.Stats()

	run.start, run.cpu0, run.steal0 = time.Now(), cpuTime(), stealTime()
	h, err := orch.Start(ctx, spec)
	if err != nil {
		return nil, err
	}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // the event stream closes once the rollout is terminal and drained
		defer wg.Done()
		for rec := range h.Events(ctx) {
			run.events = append(run.events, stamped{rec, time.Now(), cpuTime()})
		}
	}()
	go func() {
		defer wg.Done()
		runtime.LockOSThread() // so threadCPU is this operator's
		defer runtime.UnlockOSThread()
		tick := time.NewTicker(statusEvery)
		defer tick.Stop()
		for {
			select {
			case <-h.Done():
				return
			case <-tick.C:
				t0, c0 := time.Now(), threadCPU()
				h.Status()
				run.statusCPU = append(run.statusCPU, threadCPU()-c0)
				run.status = append(run.status, spans.record("status", "", t0, nil).Sub(t0))
			}
		}
	}()
	var sampled, full int
	stopSampler := make(chan struct{})
	samplerDone := make(chan struct{})
	go func() {
		defer close(samplerDone)
		if spans == nil {
			return
		}
		tick := time.NewTicker(budgetEvery)
		defer tick.Stop()
		for {
			select {
			case <-stopSampler:
				return
			case <-tick.C:
				sampled++
				if run.budget.InFlight() >= int64(run.budget.Cap()) {
					full++
				}
			}
		}
	}()
	run.out, err = h.Wait(ctx)
	run.end, run.cpu1, run.steal1 = time.Now(), cpuTime(), stealTime()
	close(stopSampler)
	<-samplerDone
	wg.Wait()
	run.state = h.Status().State

	var mem1 runtime.MemStats
	runtime.ReadMemStats(&mem1)
	run.alloc = mem1.TotalAlloc - mem0.TotalAlloc
	run.gcs = mem1.NumGC - mem0.NumGC
	run.stats = subStats(f.srv.Stats(), stats0)
	if sampled > 0 {
		run.saturated = float64(full) / float64(sampled)
	}
	return run, err
}

func subStats(a, b transport.Stats) transport.Stats {
	return transport.Stats{FramesSent: a.FramesSent - b.FramesSent, BytesSent: a.BytesSent - b.BytesSent}
}

// checkRollout verifies one rollout: it succeeded with every member
// integrated on the release and none quarantined, every member's
// integrated record arrived on the event stream, and the journal loads,
// ends in complete and holds exactly the expected records.
func checkRollout(run *rolloutRun, f *liveFleet, shape fleetShape, up *pkgmgr.Upgrade, clusters []*deploy.Cluster) error {
	if run.state != orchestrator.StateSucceeded {
		return fmt.Errorf("rollout ended %s", run.state)
	}
	if got := run.out.Integrated(); got != shape.members || len(run.out.Quarantined) > 0 {
		return fmt.Errorf("integrated %d/%d, quarantined %d", got, shape.members, len(run.out.Quarantined))
	}
	for name, st := range run.out.Nodes {
		if st.UpgradeID != up.ID {
			return fmt.Errorf("%s is on %q, want %s", name, st.UpgradeID, up.ID)
		}
	}
	integrated := make(map[string]bool, shape.members)
	for _, ev := range run.events {
		if ev.rec.Type == rollout.RecIntegrated && ev.rec.UpgradeID == up.ID {
			integrated[ev.rec.Node] = true
		}
	}
	if len(integrated) != shape.members {
		return fmt.Errorf("%d/%d integrated records on the event stream", len(integrated), shape.members)
	}
	recs, err := rollout.Load(run.journal)
	if err != nil {
		return err
	}
	stages := len(staging.BuildPlan(deploy.PolicyBalanced, deploy.Refs(clusters), 0).Stages)
	// plan, a stage_start and a gate per stage, tested and integrated per
	// member, complete.
	if want := 1 + 2*stages + 2*shape.members + 1; len(recs) != want {
		return fmt.Errorf("journal holds %d records, want %d", len(recs), want)
	}
	if last := recs[len(recs)-1]; last.Type != rollout.RecComplete || last.UpgradeID != up.ID {
		return fmt.Errorf("journal ends with %s %s, want complete %s", last.Type, last.UpgradeID, up.ID)
	}
	if shape.swarm {
		want := map[string][]byte{}
		for _, file := range up.Pkg.Files {
			want[file.Path] = file.Data
		}
		for _, a := range f.agents {
			for path, data := range want {
				got := a.M.ReadFile(path)
				if got == nil || !bytes.Equal(got.Data, data) {
					return fmt.Errorf("%s: installed %s differs from the release", a.M.Name, path)
				}
			}
		}
	} else if got := f.sim.Integrated(); got != int64(shape.members) {
		return fmt.Errorf("sim fleet integrated %d times, want %d", got, shape.members)
	}
	return nil
}

// rolloutLayers derives the traced iteration's per-layer metrics.
func rolloutLayers(run *rolloutRun, f *liveFleet, shape fleetShape, up *pkgmgr.Upgrade, clusters []*deploy.Cluster,
	nodes map[string]*countingNode, ops *opCounts, spans *spanLog, reg *telemetry.Registry) map[string]float64 {
	n := float64(shape.members)
	m := map[string]float64{}

	test := spanDurations(spans.of("test-rpc"), ms)
	integ := spanDurations(spans.of("integrate-rpc"), ms)
	m["transport.test_rpc_ms.p50"] = quantile(test, 0.50)
	m["transport.test_rpc_ms.p99"] = quantile(test, 0.99)
	m["transport.integrate_rpc_ms.p50"] = quantile(integ, 0.50)
	m["transport.integrate_rpc_ms.p99"] = quantile(integ, 0.99)
	m["transport.rpc_attempts"] = float64(ops.attempts.Load())
	m["transport.rpc_errors"] = float64(ops.errors.Load())
	m["transport.rpc_retries"] = float64(ops.retries.Load())
	m["transport.frames_per_member"] = float64(run.stats.FramesSent) / n
	m["transport.bytes_per_member"] = float64(run.stats.BytesSent) / n
	m["transport.register_s"] = secs(f.register)

	first, repeat := timeManifest(up, spans)
	m["distrib.manifest_first_ms"] = ms(first)
	m["distrib.manifest_repeat_ms"] = ms(repeat)
	tr := run.out.Transfer
	m["distrib.vendor_chunk_mb"] = float64(tr.ChunkBytes) / 1e6
	m["distrib.peer_chunk_mb"] = float64(tr.PeerBytes) / 1e6
	if moved := tr.ChunkBytes + tr.PeerBytes; moved > 0 {
		m["distrib.peer_share"] = float64(tr.PeerBytes) / float64(moved)
	}
	if refs := tr.ChunkHits + tr.ChunkMisses; refs > 0 {
		m["distrib.chunk_hit_ratio"] = float64(tr.ChunkHits) / float64(refs)
	}
	m["distrib.vendor_fallbacks"] = float64(tr.VendorFallbacks)

	// Stages run from their stage_start record to their gate record; the
	// barrier gap runs from a gate to the next stage_start.
	var stageDur, gaps []float64
	var self time.Duration
	rpcs := append(spans.of("test-rpc"), spans.of("integrate-rpc")...)
	rpcIvs := make([]interval, len(rpcs))
	for i, s := range rpcs {
		rpcIvs[i] = s.iv
	}
	var open *stamped
	var lastGate time.Time
	for i := range run.events {
		ev := &run.events[i]
		switch ev.rec.Type {
		case rollout.RecStageStart:
			if !lastGate.IsZero() {
				gaps = append(gaps, ms(ev.at.Sub(lastGate)))
			}
			open = ev
		case rollout.RecGate:
			if open != nil {
				iv := interval{open.at, ev.at}
				stageDur = append(stageDur, secs(iv.end.Sub(iv.start)))
				self += selfTime(iv, rpcIvs)
				spans.add(span{kind: "stage", iv: iv})
				open = nil
			}
			lastGate = ev.at
		}
	}
	m["deploy.stage_s.p50"] = median(stageDur)
	m["deploy.stage_s.max"] = quantile(stageDur, 1)
	m["deploy.stage_self_s"] = secs(self)
	m["deploy.barrier_gap_ms.p50"] = median(gaps)
	m["deploy.budget_saturated_share"] = run.saturated
	m["deploy.budget_highwater"] = float64(run.budget.HighWater())
	wait := reg.Histogram("mirage_budget_wait_seconds", "", "op", 1e-9)
	waits := mergeHist(wait.With("test").Snapshot(), wait.With("integrate").Snapshot())
	m["deploy.budget_wait_ms.p50"] = histQuantile(waits, 0.50) / 1e6
	m["deploy.budget_wait_ms.p99"] = histQuantile(waits, 0.99) / 1e6

	if recs, err := rollout.Load(run.journal); err == nil {
		m["rollout.journal_records"] = float64(len(recs))
	}
	if fi, err := os.Stat(run.journal); err == nil {
		m["rollout.journal_bytes_per_member"] = float64(fi.Size()) / n
	}
	fsync := reg.Histogram("mirage_journal_fsync_seconds", "", "", 1e-9).With("").Snapshot()
	m["rollout.fsync_ms.p50"] = histQuantile(fsync, 0.50) / 1e6
	m["rollout.fsync_ms.p99"] = histQuantile(fsync, 0.99) / 1e6
	batch := reg.Histogram("mirage_journal_batch_records", "", "", 1).With("").Snapshot()
	m["rollout.batch_records.p50"] = histQuantile(batch, 0.50)

	var lags []float64
	for _, ev := range run.events {
		if ev.rec.Type == rollout.RecIntegrated {
			if nd := nodes[ev.rec.Node]; nd != nil && !nd.integrated.IsZero() {
				lags = append(lags, ms(ev.at.Sub(nd.integrated)))
			}
		}
	}
	m["orchestrator.event_lag_ms.p90"] = quantile(lags, 0.90)
	barrier := reg.Histogram("mirage_stage_barrier_seconds", "", "", 1e-9).With("").Snapshot()
	m["orchestrator.barrier_ms.p50"] = histQuantile(barrier, 0.50) / 1e6
	m["staging.plan_ms"] = ms(timePlan(clusters, spans))

	m["go.alloc_bytes_per_item"] = float64(run.alloc) / n
	m["go.gc_cycles"] = float64(run.gcs)
	return m
}

// timeManifest builds the release's manifest on a fresh store, as the
// vendor does on its first push, then again as on every later push.
func timeManifest(up *pkgmgr.Upgrade, spans *spanLog) (first, repeat time.Duration) {
	store := distrib.NewStore()
	t0 := time.Now()
	store.Manifest(up)
	first = spans.record("manifest", "", t0, nil).Sub(t0)
	var reps []float64
	for i := 0; i < 21; i++ {
		t0 = time.Now()
		store.Manifest(up)
		reps = append(reps, float64(spans.record("manifest", "", t0, nil).Sub(t0)))
	}
	return first, time.Duration(median(reps))
}

// timePlan is the median time to build the Balanced plan over clusters.
func timePlan(clusters []*deploy.Cluster, spans *spanLog) time.Duration {
	var reps []float64
	for i := 0; i < 21; i++ {
		t0 := time.Now()
		staging.BuildPlan(deploy.PolicyBalanced, deploy.Refs(clusters), 0)
		reps = append(reps, float64(spans.record("plan", "", t0, nil).Sub(t0)))
	}
	return time.Duration(median(reps))
}

// runRollouts is the fleet-10k and swarm-100 workload loop. In a traced
// run iterations alternate plain and traced, so both see the same
// conditions and their ratio is the tracing overhead.
func runRollouts(ctx context.Context, cfg config, shape fleetShape) (*result, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	layout := assign(shape, rng)
	res := newResult()
	journals := filepath.Join(cfg.dir, "journals")
	if err := os.MkdirAll(journals, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(journals)

	var setup, cpu, itemCPU, statusCPU, wire, heap []float64 // plain iterations
	var wall, converge, items, status []float64              // their wall-clock views
	var tracedCPU []float64
	var layers []map[string]float64
	var dropped int64
	var lastSpans *spanLog
	deadline := time.Now().Add(time.Duration(cfg.seconds) * time.Second)
	for k := 0; time.Now().Before(deadline) || k < 1 || (cfg.trace && k < 2); k++ {
		traced := cfg.trace && k%2 == 1
		var reg *telemetry.Registry
		var spans *spanLog
		if traced {
			reg, spans = telemetry.NewRegistry(), newSpanLog(maxSpans)
		}
		f, err := buildFleet(shape, reg, rng)
		if err != nil {
			return nil, fmt.Errorf("building fleet: %w", err)
		}
		ops := &opCounts{}
		clusters, nodes := layout.clusters(f, ops, spans)
		up := simRelease(rng, k)
		if shape.swarm {
			up = swarmRelease(rng, k)
		}
		journal := filepath.Join(journals, fmt.Sprintf("r%d.journal", k))
		run, err := driveRollout(ctx, f, shape, up, clusters, journal, reg, spans)
		if err == nil {
			err = checkRollout(run, f, shape, up, clusters)
		}
		if err != nil {
			f.close()
			return res.fail(err), nil
		}
		res.attempted += ops.attempts.Load()
		res.failed += ops.errors.Load() + ops.retries.Load() + int64(len(run.out.Quarantined))

		if traced {
			tracedCPU = append(tracedCPU, secs(run.cpu1-run.cpu0))
			spans.add(span{kind: "register", iv: interval{run.start.Add(-f.register), run.start}})
			layers = append(layers, rolloutLayers(run, f, shape, up, clusters, nodes, ops, spans, reg))
			dropped += spans.Dropped()
			lastSpans = spans
		} else {
			setup = append(setup, secs(f.setup))
			cpu = append(cpu, secs(run.cpu1-run.cpu0))
			wall = append(wall, secs(run.end.Sub(run.start)))
			converge = append(converge, secs(run.end.Sub(run.start)-(run.steal1-run.steal0)))
			wire = append(wire, float64(run.stats.BytesSent)/float64(shape.members))
			for _, ev := range run.events {
				if ev.rec.Type == rollout.RecIntegrated {
					itemCPU = append(itemCPU, ms(ev.cpu-run.cpu0))
					items = append(items, ms(ev.at.Sub(run.start)))
				}
			}
			statusCPU = append(statusCPU, durations(run.statusCPU, ms)...)
			status = append(status, durations(run.status, ms)...)
			heap = append(heap, liveHeapMB())
		}
		f.close()
		os.Remove(journal)
	}

	if cfg.trace {
		m := medianLayers(layers)
		m["wall.converge_s"] = median(wall)
		m["wall.item_p50_ms"] = quantile(items, 0.50)
		m["wall.item_p90_ms"] = quantile(items, 0.90)
		m["wall.read_p90_ms"] = quantile(status, 0.90)
		m["trace.overhead_ratio"] = median(tracedCPU) / median(cpu)
		m["trace.spans_dropped"] = float64(dropped)
		res.metrics = m
		return res, lastSpans.writeChrome(cfg.tracePath(), cfg.workload)
	}
	res.metrics = map[string]float64{
		"setup_s":             median(setup),
		"converge_s":          median(converge),
		"converge_cpu_s":      median(cpu),
		"item_p50_cpu_ms":     quantile(itemCPU, 0.50),
		"item_p90_cpu_ms":     quantile(itemCPU, 0.90),
		"read_p50_ms":         quantile(status, 0.50),
		"read_p50_cpu_ms":     quantile(statusCPU, 0.50),
		"wire_bytes_per_item": median(wire),
		"live_heap_mb":        median(heap),
	}
	res.samples = map[string]int{"setup": len(setup), "converge": len(cpu), "item": len(itemCPU), "read": len(statusCPU)}
	return res, nil
}

// liveHeapMB is the heap in use after a forced collection.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapInuse) / 1e6
}

// medianLayers reduces per-iteration layer metrics to their medians.
func medianLayers(its []map[string]float64) map[string]float64 {
	all := map[string][]float64{}
	for _, m := range its {
		for k, v := range m {
			all[k] = append(all[k], v)
		}
	}
	out := map[string]float64{}
	for k, vs := range all {
		out[k] = median(vs)
	}
	return out
}
