// Package vendorstack assembles the vendor side of a networked Mirage
// deployment, config in and running stack out: the transport server and
// the orchestrator around one telemetry registry and tracer, MySQL fleet
// profiling that publishes the live-fleet drift monitor, fault arming,
// the drift bridge from agents' profile deltas to live rollouts, the
// controller hook every rollout gets, and the admin API with its drain.
//
// Enrollment (identify and record on each machine) stays with the caller,
// which knows what runs where.
package vendorstack

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"sync/atomic"

	"repro/internal/cluster"
	"repro/internal/deploy"
	"repro/internal/fleetwatch"
	"repro/internal/orchestrator"
	"repro/internal/parser"
	"repro/internal/profile"
	"repro/internal/resource"
	"repro/internal/scenario"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// Config is the vendor's configuration. Every field is a mirage-vendor
// flag, named in its comment.
type Config struct {
	Listen             string              // -listen: agent address ("127.0.0.1:0" in tests)
	Shards             int                 // -shards: agent-registry shard count (0 = GOMAXPROCS-derived)
	Inline             bool                // -inline: legacy inline upgrade payloads
	NoPeers            bool                // -no-peers: disable peer chunk swarming
	Faults             transport.FaultPlan // -fault-*: seeded chaos, armed by New
	Diameter           int                 // -d: QT clustering diameter (0 merges identical profiles only)
	ProfileParallelism int                 // -profile-parallel: concurrent fingerprint RPCs (0 = default)
	Parallelism        int                 // -parallel: per-rollout worker pool (0 = controller default)
	JournalDir         string              // -journal-dir: per-rollout journals ("" = unjournaled)
	WorkerBudget       int                 // -worker-budget: vendor-wide in-flight RPC cap (0 = unlimited)
	MaxRollouts        int                 // -max-rollouts: concurrently executing rollouts (0 = unbounded)
	MaxQueued          int                 // -max-queued: rollouts queued for a slot
	Admin              string              // -admin: HTTP control-plane address ("" = no admin API; Serve refuses)
	Pprof              bool                // -pprof: mount net/http/pprof on the admin API
}

// errNotProfiled refuses fleet requests and profile deltas before Profile.
var errNotProfiled = errors.New("fleet not profiled yet")

// Stack is a running vendor.
type Stack struct {
	Server *transport.Server
	Orch   *orchestrator.Orchestrator

	cfg     Config
	monitor atomic.Pointer[fleetwatch.Monitor] // published by Profile

	// MySQL profiling inputs: resource refs, agent parser registry and
	// the vendor reference's fingerprint.
	refs        []string
	regCfg      transport.RegistryConfig
	vendorItems *resource.Set

	adminLn net.Listener    // bound by New, served by Serve
	base    context.Context // parent of HTTP-started rollouts and fleet refreshes
	http    *http.Server
}

// New binds the admin address, so a taken port fails the vendor at
// startup, then starts the transport server, arms cfg.Faults on it and
// builds the orchestrator. Agents may register as soon as New returns.
func New(cfg Config) (*Stack, error) {
	regCfg := transport.MirageRegistryConfig()
	reg, err := transport.BuildRegistry(regCfg)
	if err != nil {
		return nil, fmt.Errorf("vendorstack: parser registry: %w", err)
	}
	s := &Stack{cfg: cfg, refs: scenario.MySQLResourceRefs(), regCfg: regCfg}
	s.vendorItems = parser.NewFingerprinter(reg).Fingerprint(scenario.MySQLVendorReference(), s.refs)
	if cfg.Admin != "" {
		if s.adminLn, err = net.Listen("tcp", cfg.Admin); err != nil {
			return nil, fmt.Errorf("vendorstack: admin API: %w", err)
		}
	}
	if s.Server, err = transport.ListenWith(cfg.Listen, transport.ListenOpts{Shards: cfg.Shards}); err != nil {
		if s.adminLn != nil {
			s.adminLn.Close()
		}
		return nil, err
	}
	// One registry for the transport's and every rollout's families, one
	// tracer for per-rollout span traces; the admin API serves both.
	telem := telemetry.NewRegistry()
	s.Server.Telemetry = telem
	s.Server.InlinePayloads = cfg.Inline
	s.Server.DisablePeers = cfg.NoPeers
	s.Server.ProfileParallelism = cfg.ProfileParallelism
	s.Server.OnProfileDelta = s.applyDelta
	if p := cfg.Faults; p.Drop > 0 || p.Delay > 0 || p.Corrupt > 0 || p.Reset > 0 || len(p.Crashes) > 0 {
		s.Server.Faults = transport.NewFaultInjector(p)
		slog.Info("chaos: fault injection armed", "seed", p.Seed, "drop", p.Drop,
			"delay", p.Delay, "corrupt", p.Corrupt, "reset", p.Reset, "crashes", len(p.Crashes))
	}
	s.Orch = orchestrator.New(cfg.JournalDir)
	s.Orch.Budget = deploy.NewBudget(cfg.WorkerBudget)
	s.Orch.MaxActive = cfg.MaxRollouts
	s.Orch.MaxQueued = cfg.MaxQueued
	s.Orch.Configure = s.configure
	s.Orch.Telemetry = telem
	s.Orch.Tracer = &telemetry.Tracer{}
	return s, nil
}

// Profile fingerprints every registered agent against the vendor's MySQL
// reference, clusters the fleet, and publishes the drift monitor over
// that clustering.
func (s *Stack) Profile(ctx context.Context) (*transport.RemoteClustering, error) {
	ccfg := cluster.Config{Diameter: s.cfg.Diameter}
	rc, err := s.Server.ClusterRemote(ctx, "mysql", s.refs, s.regCfg, s.vendorItems, ccfg, 1)
	if err != nil {
		return nil, err
	}
	m := fleetwatch.NewMonitor(cluster.NewSnapshot(ccfg, profile.Fingerprints(rc.Profiles), rc.Clusters), s.Orch.Telemetry)
	m.SetRepresentatives(rc.Deploy)
	m.Subscribe(s.notifyDrift)
	s.monitor.Store(m)
	return rc, nil
}

// applyDelta is the transport's OpProfileDelta hook: fold the push into
// the monitor, or ask the agent for its full profile when it cannot
// apply. Classified events leave through the monitor's subscription.
func (s *Stack) applyDelta(req *transport.ProfileDeltaReq) (resync bool, err error) {
	m := s.monitor.Load()
	if m == nil {
		return false, errNotProfiled
	}
	_, err = m.ApplyDelta(req.Machine, req.AppSet,
		transport.ItemsFromWire(req.Added).Items(),
		transport.ItemsFromWire(req.Removed).Items(), req.Sig, req.Full)
	var rs *fleetwatch.ErrResync
	if errors.As(err, &rs) {
		return true, nil
	}
	return false, err
}

// notifyDrift is the monitor's one subscriber: it bridges each fleet
// change to every live rollout.
func (s *Stack) notifyDrift(ev fleetwatch.Event) {
	if ev.Class == fleetwatch.ClassStable {
		return
	}
	slog.Info("fleet drift", "machine", ev.Machine, "class", string(ev.Class),
		"from", ev.From, "to", ev.To, "view", ev.Version)
	s.Orch.NotifyDrift(orchestrator.DriftEvent{
		Machine: ev.Machine, Cluster: ev.From, To: ev.To,
		Class: string(ev.Class), Version: ev.Version,
	})
}

// configure is the orchestrator's controller hook: every rollout of this
// vendor gets it, so a Spec's own Configure only adds its tuning.
func (s *Stack) configure(ctl *deploy.Controller) {
	if s.cfg.Parallelism > 0 {
		ctl.Parallelism = s.cfg.Parallelism
	}
	ctl.Transfer = s.Server.TransferSnapshot
	// Chunks moved while restoring members book as ChunksRolledBack.
	ctl.RollbackMode = s.Server.SetRollbackMode
	// Each gated wave's members become peer chunk servers for the waves
	// that follow, and the drift monitor treats their clusters as
	// rep-invalidated on any member change.
	ctl.GatedMembers = func(names []string) {
		s.Server.MarkPeerEligible(names)
		if m := s.monitor.Load(); m != nil {
			m.MarkGated(names)
		}
	}
}

// Restage rebuilds the clusters of deployment from the live fleet view
// (orchestrator.Spec.Restage).
func (s *Stack) Restage() ([]*deploy.Cluster, error) {
	m := s.monitor.Load()
	if m == nil {
		return nil, errNotProfiled
	}
	return m.DeployClusters(1, func(name string) deploy.Node { return s.Server.Node(name) })
}

// fleetDrift serves GET /fleet/drift: the live fleet view.
func (s *Stack) fleetDrift() (any, error) {
	m := s.monitor.Load()
	if m == nil {
		return nil, errNotProfiled
	}
	return m.View(), nil
}

// fleetRefresh serves POST /fleet/refresh: re-fingerprint every agent
// into a fresh fleet view (drift flags reset; the view is ground truth).
func (s *Stack) fleetRefresh() (any, error) {
	m := s.monitor.Load()
	if m == nil {
		return nil, errNotProfiled
	}
	fps, err := s.Server.FingerprintAll(s.base, "mysql", s.refs, s.regCfg, s.vendorItems)
	if err != nil {
		return nil, err
	}
	v := m.Refresh(fps)
	slog.Info("fleet refreshed", "view", v.Version, "machines", v.Machines, "clusters", len(v.Clusters))
	return v, nil
}

// Serve serves the admin API, in the background, on the address New
// bound from Config.Admin. It returns that address (the chosen port, for
// "host:0"). base is the parent context of HTTP-started rollouts and
// fleet refreshes.
func (s *Stack) Serve(base context.Context, launch orchestrator.Launcher) (string, error) {
	if s.adminLn == nil {
		return "", errors.New("vendorstack: no admin address configured")
	}
	s.base = base
	api := &orchestrator.API{
		Orch: s.Orch, Launch: launch, Base: base,
		EnablePprof:  s.cfg.Pprof,
		FleetDrift:   s.fleetDrift,
		FleetRefresh: s.fleetRefresh,
	}
	s.http = &http.Server{Handler: api.Handler()}
	go s.http.Serve(s.adminLn) //nolint:errcheck — returns ErrServerClosed on Drain/Close
	return s.adminLn.Addr().String(), nil
}

// Drain stops the vendor taking work: the admin API shuts (in-flight
// requests finish, new ones are refused, bounded by ctx), then every
// non-terminal rollout — queued first, so aborting a running one cannot
// hand its slot to the queue, then running or paused — is aborted, and
// Drain returns every rollout's final status.
func (s *Stack) Drain(ctx context.Context) []orchestrator.Status {
	slog.Info("drain: refusing new admissions", "active", s.Orch.Active(), "queued", s.Orch.Queued())
	if s.http != nil {
		s.http.Shutdown(ctx) //nolint:errcheck — drain is best-effort past ctx
	}
	hs := s.Orch.List()
	for _, queued := range []bool{true, false} {
		for _, h := range hs {
			if st := h.Status().State; !st.Terminal() && (st == orchestrator.StateQueued) == queued {
				slog.Info("drain: aborting rollout", "rollout", h.ID(), "state", string(st))
				h.Abort() // returns once the rollout has ended
			}
		}
	}
	statuses := s.Orch.Statuses()
	for _, rs := range statuses {
		slog.Info("rollout drained", "rollout", rs.ID, "state", string(rs.State),
			"integrated", rs.Integrated, "members", len(rs.Members))
	}
	return statuses
}

// Close tears down the admin API and the transport server.
func (s *Stack) Close() error {
	if s.http != nil {
		s.http.Close()
	}
	if s.adminLn != nil {
		s.adminLn.Close() // unserved, or already closed by s.http
	}
	return s.Server.Close()
}
