package vendorstack

import (
	"context"
	"encoding/json"
	"net"
	"net/http"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/deploy"
	"repro/internal/fleetwatch"
	"repro/internal/machine"
	"repro/internal/orchestrator"
	"repro/internal/profile"
	"repro/internal/scenario"
	"repro/internal/transport"
)

// testFleet is a Table 2 subset that clusters into several clusters and
// upgrades cleanly (no PHP, no legacy user config).
var testFleet = []string{"fc5-ms4", "ubt-ms4", "ubt-ms4-2", "ubt-ms4-withconfig"}

// liveFleet is a running stack with real agents over loopback TCP.
type liveFleet struct {
	st       *Stack
	agents   map[string]*transport.Agent
	machines map[string]*machine.Machine
}

// startFleet builds the stack from cfg (agent listener on a free port,
// the -d default of 3 unless cfg names a diameter), connects one agent per testFleet machine and enrolls their MySQL usage.
func startFleet(t *testing.T, cfg Config) *liveFleet {
	t.Helper()
	cfg.Listen = "127.0.0.1:0"
	st, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var agents sync.WaitGroup
	t.Cleanup(func() {
		st.Close() // ends every agent session
		agents.Wait()
	})
	f := &liveFleet{st: st, agents: map[string]*transport.Agent{}, machines: map[string]*machine.Machine{}}
	for _, spec := range scenario.MySQLTable2() {
		if !slices.Contains(testFleet, spec.Name) {
			continue
		}
		m := scenario.BuildMySQLMachine(spec)
		a := transport.NewAgent(m)
		f.machines[m.Name], f.agents[m.Name] = m, a
		agents.Add(1)
		go func() {
			defer agents.Done()
			a.Run(st.Server.Addr()) //nolint:errcheck — a session end, not a failure
		}()
	}
	if got := st.Server.WaitForAgents(len(testFleet), 10*time.Second); got != len(testFleet) {
		t.Fatalf("%d/%d agents registered", got, len(testFleet))
	}
	ctx := context.Background()
	for _, name := range testFleet {
		if _, err := st.Server.Identify(ctx, name, "mysql", [][]string{{"SELECT 1"}}); err != nil {
			t.Fatal(err)
		}
		if _, err := st.Server.Record(ctx, name, "mysql", []string{"SELECT 1"}); err != nil {
			t.Fatal(err)
		}
	}
	return f
}

// rewrite changes enough of m's MySQL environment that it no longer
// resembles any cluster it was profiled into.
func rewrite(m *machine.Machine) {
	m.WriteFile(&machine.File{Path: "/lib/libc.so", Type: machine.TypeSharedLib,
		Data: []byte("libc 2.9 rebuilt"), Version: "2.9"})
	m.WriteFile(&machine.File{Path: "/etc/mysql/my.cnf", Type: machine.TypeConfig,
		Data: []byte("[mysqld]\nport = 3307\ndatadir = /srv/mysql\nmax_connections = 500\n")})
	m.WriteFile(&machine.File{Path: "/home/user/.my.cnf", Type: machine.TypeConfig,
		Data: []byte("[client]\nuser = ops\n")})
}

// gateHold parks the first rollout that passes a stage gate inside the
// gated-members hook — after the stack's own hook ran — until release,
// so a test can act on a rollout that is certainly mid-flight.
type gateHold struct {
	once, releaseOnce sync.Once
	gated             chan []string
	released          chan struct{}
}

// newGateHold returns a hold that is released at the latest when the
// test ends, so no rollout goroutine outlives it.
func newGateHold(t *testing.T) *gateHold {
	g := &gateHold{gated: make(chan []string, 1), released: make(chan struct{})}
	t.Cleanup(g.release)
	return g
}

func (g *gateHold) release() { g.releaseOnce.Do(func() { close(g.released) }) }

// launcher builds balanced MySQL 5 rollouts over clusters whose
// gated-members hook, once the stack has set it, is wrapped by the hold.
func (g *gateHold) launcher(clusters []*deploy.Cluster) orchestrator.Launcher {
	return func(req orchestrator.StartRequest) (orchestrator.Spec, error) {
		return orchestrator.Spec{
			Policy:   deploy.PolicyBalanced,
			Upgrade:  scenario.MySQLUpgrade(),
			Clusters: clusters,
			Drift:    req.DriftPolicy(),
			Configure: func(ctl *deploy.Controller) {
				mark := ctl.GatedMembers
				ctl.GatedMembers = func(names []string) {
					mark(names)
					g.once.Do(func() {
						g.gated <- names
						<-g.released
					})
				}
			},
		}, nil
	}
}

func (g *gateHold) wait(t *testing.T) []string {
	t.Helper()
	select {
	case names := <-g.gated:
		return names
	case <-time.After(10 * time.Second):
		t.Fatal("no stage gate passed")
		return nil
	}
}

// waitState polls the rollout over HTTP until it reaches want.
func waitState(t *testing.T, c *orchestrator.Client, id string, want orchestrator.State) orchestrator.Status {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		st, err := c.Get(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		if st.State == want {
			return st
		}
		if st.State.Terminal() || time.Now().After(deadline) {
			t.Fatalf("rollout %s is %s, want %s", id, st.State, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func fleetView(t *testing.T, c *orchestrator.Client) fleetwatch.FleetView {
	t.Helper()
	raw, err := c.FleetDrift(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var v fleetwatch.FleetView
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatal(err)
	}
	return v
}

// TestDeltaBeforeProfileIsRefused: an agent that already holds a
// fingerprint baseline pushes a delta before the vendor has profiled the
// fleet; the vendor answers with an error, which CheckDrift returns.
// Once profiled, the next change is accepted.
func TestDeltaBeforeProfileIsRefused(t *testing.T) {
	f := startFleet(t, Config{Diameter: 3})
	ctx := context.Background()
	if _, err := f.st.Server.FingerprintAll(ctx, "mysql", f.st.refs, f.st.regCfg, f.st.vendorItems); err != nil {
		t.Fatal(err)
	}
	a := f.agents["ubt-ms4"]
	rewrite(f.machines["ubt-ms4"])
	pushed, err := a.CheckDrift(f.st.Server.Addr())
	if err == nil || !strings.Contains(err.Error(), errNotProfiled.Error()) {
		t.Fatalf("CheckDrift before profiling: pushed=%d err=%v, want %q", pushed, err, errNotProfiled)
	}

	if _, err := f.st.Profile(ctx); err != nil {
		t.Fatal(err)
	}
	v0 := f.st.monitor.Load().Version()
	f.machines["ubt-ms4"].WriteFile(&machine.File{Path: "/home/user/.my.cnf", Type: machine.TypeConfig,
		Data: []byte("[client]\nuser = dba\n")})
	if pushed, err := a.CheckDrift(f.st.Server.Addr()); err != nil || pushed != 1 {
		t.Fatalf("CheckDrift after profiling: pushed=%d err=%v, want 1 push", pushed, err)
	}
	if v := f.st.monitor.Load().Version(); v <= v0 {
		t.Fatalf("fleet view version %d after a folded delta, want > %d", v, v0)
	}
}

// TestDriftHoldThroughAgentDelta drives the drift bridge end to end on
// the production path: a real agent's delta push folds into the monitor,
// the monitor classifies the move as drifted (the machine left a gated
// cluster), and the drift_action=hold rollout it belongs to is held and
// parks at its next stage barrier.
func TestDriftHoldThroughAgentDelta(t *testing.T) {
	f := startFleet(t, Config{Diameter: 3, Admin: "127.0.0.1:0"})
	ctx := context.Background()
	rc, err := f.st.Profile(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(rc.Clusters) < 2 {
		t.Fatalf("fleet profiled into %d cluster(s), want a multi-stage plan", len(rc.Clusters))
	}
	hold := newGateHold(t)
	admin, err := f.st.Serve(ctx, hold.launcher(rc.Deploy))
	if err != nil {
		t.Fatal(err)
	}
	c := &orchestrator.Client{Base: "http://" + admin}
	before := fleetView(t, c)

	rs, err := c.Start(ctx, orchestrator.StartRequest{Policy: "balanced", DriftAction: "hold"})
	if err != nil {
		t.Fatal(err)
	}
	mover := hold.wait(t)[0] // integrated; its cluster is now gated
	rewrite(f.machines[mover])
	if pushed, err := f.agents[mover].CheckDrift(f.st.Server.Addr()); err != nil || pushed != 1 {
		t.Fatalf("CheckDrift: pushed=%d err=%v, want 1 push", pushed, err)
	}

	got, err := c.Get(ctx, rs.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.DriftHold == "" || got.Drifted != 1 || !got.Members[mover].Drifted {
		t.Fatalf("after %s drifted: drift_hold=%q drifted=%d member=%+v",
			mover, got.DriftHold, got.Drifted, got.Members[mover])
	}
	after := fleetView(t, c)
	if after.Version <= before.Version {
		t.Fatalf("/fleet/drift version %d after the fold, want > %d", after.Version, before.Version)
	}
	if !slices.Contains(after.Drifted, mover) {
		t.Fatalf("/fleet/drift drifted = %v, want %s", after.Drifted, mover)
	}

	hold.release()
	waitState(t, c, rs.ID, orchestrator.StatePaused)
	if _, err := c.Resume(ctx, rs.ID); err != nil {
		t.Fatal(err)
	}
	final, err := c.Wait(ctx, rs.ID, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if final.State != orchestrator.StateSucceeded || final.Integrated != len(testFleet) {
		t.Fatalf("after the operator's resume: %s, %d/%d integrated", final.State, final.Integrated, len(testFleet))
	}
}

// TestDrainAbortsLiveRollouts: draining a vendor with one paused and one
// queued rollout shuts the admin API, ends both aborted, and returns
// their final statuses.
func TestDrainAbortsLiveRollouts(t *testing.T) {
	f := startFleet(t, Config{Diameter: 3, Admin: "127.0.0.1:0", MaxRollouts: 1, MaxQueued: 1})
	ctx := context.Background()
	rc, err := f.st.Profile(ctx)
	if err != nil {
		t.Fatal(err)
	}
	hold := newGateHold(t)
	admin, err := f.st.Serve(ctx, hold.launcher(rc.Deploy))
	if err != nil {
		t.Fatal(err)
	}
	c := &orchestrator.Client{Base: "http://" + admin}
	paused, err := c.Start(ctx, orchestrator.StartRequest{})
	if err != nil {
		t.Fatal(err)
	}
	hold.wait(t)
	if _, err := c.Pause(ctx, paused.ID); err != nil {
		t.Fatal(err)
	}
	hold.release()
	waitState(t, c, paused.ID, orchestrator.StatePaused)
	queued, err := c.Start(ctx, orchestrator.StartRequest{})
	if err != nil {
		t.Fatal(err)
	}
	if queued.State != orchestrator.StateQueued {
		t.Fatalf("second rollout is %s, want queued behind the paused one", queued.State)
	}

	dctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	statuses := f.st.Drain(dctx)
	if len(statuses) != 2 {
		t.Fatalf("drain returned %d statuses, want 2", len(statuses))
	}
	for _, st := range statuses {
		if st.State != orchestrator.StateAborted {
			t.Fatalf("rollout %s drained as %s, want aborted", st.ID, st.State)
		}
	}
	if _, err := http.Get("http://" + admin + "/healthz"); err == nil {
		t.Fatal("admin API still answering after drain")
	}
}

// TestAdminBind: a taken admin address fails New — the vendor exits at
// startup instead of running without its HTTP surface — a ":0" address
// reports the port actually bound, and a stack without one refuses Serve.
func TestAdminBind(t *testing.T) {
	taken, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer taken.Close()
	if st, err := New(Config{Listen: "127.0.0.1:0", Admin: taken.Addr().String()}); err == nil {
		st.Close()
		t.Fatalf("New with admin %s (in use) succeeded", taken.Addr())
	}
	bare, err := New(Config{Listen: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	if addr, err := bare.Serve(context.Background(), nil); err == nil {
		t.Fatalf("Serve without an admin address served on %q", addr)
	}

	st, err := New(Config{Listen: "127.0.0.1:0", Admin: "127.0.0.1:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	addr, err := st.Serve(context.Background(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if strings.HasSuffix(addr, ":0") {
		t.Fatalf("Serve reported %s, want the bound port", addr)
	}
	resp, err := http.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz: %s", resp.Status)
	}
}

// TestDiameterReachesClustering: the configured diameter is the one the
// fleet is clustered with — 0 keeps every distinct profile apart, while
// 3 merges some of them — with no default substituted for 0.
func TestDiameterReachesClustering(t *testing.T) {
	clusters := func(d int) (clusters, distinct int) {
		f := startFleet(t, Config{Diameter: d})
		rc, err := f.st.Profile(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return len(rc.Clusters), profile.Distinct(rc.Profiles)
	}
	c0, distinct := clusters(0)
	c3, _ := clusters(3)
	if c0 != distinct || c3 >= c0 {
		t.Fatalf("clusters: d=0 → %d (%d distinct profiles), d=3 → %d; want d=0 to keep every profile apart and d=3 to merge",
			c0, distinct, c3)
	}
}

// TestRolloutsGetStackHook: a rollout started with no Configure of its
// own still gets the stack's controller hook, so its outcome carries the
// transport's transfer counters.
func TestRolloutsGetStackHook(t *testing.T) {
	f := startFleet(t, Config{Diameter: 3})
	ctx := context.Background()
	rc, err := f.st.Profile(ctx)
	if err != nil {
		t.Fatal(err)
	}
	h, err := f.st.Orch.Start(ctx, orchestrator.Spec{
		Policy: deploy.PolicyBalanced, Upgrade: scenario.MySQLUpgrade(), Clusters: rc.Deploy,
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := h.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if out.Integrated() != len(testFleet) || out.Transfer.FramesSent == 0 {
		t.Fatalf("integrated %d/%d, transfer %+v: want every member and the stack's counters",
			out.Integrated(), len(testFleet), out.Transfer)
	}
}
