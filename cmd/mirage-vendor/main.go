// mirage-vendor runs the vendor side of a networked Mirage deployment: it
// listens for machine agents, drives local resource identification and
// baseline tracing on each, fingerprints and clusters the fleet, and then
// deploys the MySQL 4->5 upgrade across the clusters through the rollout
// orchestrator, debugging reported failures by releasing a corrected
// upgrade.
//
// Two modes share all of that machinery:
//
//   - One-shot (default): start a single rollout, wait for it, print the
//     outcome, exit. The rollout is a first-class orchestrator rollout —
//     its ID is printed so an operator can drive it with mirage-ctl while
//     it runs (pause, abort, watch events) via -admin.
//   - Serve (-serve): expose the HTTP control plane and wait. Rollouts
//     are started, observed, paused, resumed and aborted through
//     mirage-ctl (or plain HTTP); each gets its own journal under
//     -journal-dir. The process runs until interrupted.
//
// Exit codes: 0 — deployment succeeded; 1 — infrastructure error (listen
// failure, agent loss, journal I/O); 2 — usage; 3 — the rollout itself
// failed (the vendor abandoned the upgrade, the gate never converged, or
// the rollout was aborted). The distinction is what lets a wrapping
// script tell "the upgrade is bad" from "the tooling broke".
//
// Pair with mirage-agent:
//
//	mirage-vendor -listen 127.0.0.1:7033 -agents 4 -serve &
//	mirage-agent -connect 127.0.0.1:7033 -machine ubt-ms4 &
//	...
//	mirage-ctl -server http://127.0.0.1:7080 start -policy balanced
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/deploy"
	"repro/internal/logx"
	"repro/internal/orchestrator"
	"repro/internal/pkgmgr"
	"repro/internal/profile"
	"repro/internal/report"
	"repro/internal/scenario"
	"repro/internal/staging"
	"repro/internal/vendorstack"
)

const (
	exitInfra   = 1
	exitUsage   = 2
	exitRollout = 3
)

// fatal logs an infrastructure error and exits with the infra code.
func fatal(msg string, args ...any) {
	slog.Error(msg, args...)
	os.Exit(exitInfra)
}

// options is the parsed command line: the vendor stack's config and more.
type options struct {
	stack        vendorstack.Config
	agents       int
	wait         time.Duration
	policy       string
	showPlan     bool
	urrFile      string
	journal      string
	resume       bool
	serve        bool
	autoRollback bool
	gate         staging.GatePolicy // the vendor's default canary gate
	log          *logx.Options
}

// envOverrides lets a container image bake operational defaults without
// rewriting the command line. Each value goes through its flag's own
// parser before the command line is parsed: an explicit flag still wins,
// and an unparsable value is a usage error.
var envOverrides = []struct{ env, flag string }{
	{"MIRAGE_LISTEN_ADDR", "listen"},
	{"MIRAGE_AGENTS", "agents"},
	{"MIRAGE_WAIT", "wait"},
	{"MIRAGE_POLICY", "policy"},
	{"MIRAGE_SERVE", "serve"},
	{"MIRAGE_ADMIN_ADDR", "admin"},
	{"MIRAGE_JOURNAL_DIR", "journal-dir"},
	{"MIRAGE_SHARDS", "shards"},
	{"MIRAGE_WORKER_BUDGET", "worker-budget"},
	{"MIRAGE_MAX_ROLLOUTS", "max-rollouts"},
	{"MIRAGE_MAX_QUEUED", "max-queued"},
}

// parseFlags parses args after applying the MIRAGE_* overrides that
// lookup (os.LookupEnv in production) reports.
func parseFlags(args []string, lookup func(string) (string, bool)) (*options, error) {
	fs := flag.NewFlagSet("mirage-vendor", flag.ContinueOnError)
	o := &options{}
	c := &o.stack
	fs.StringVar(&c.Listen, "listen", "127.0.0.1:7033", "address to listen on for agents (env MIRAGE_LISTEN_ADDR)")
	fs.IntVar(&o.agents, "agents", 1, "number of agents to wait for (env MIRAGE_AGENTS)")
	fs.DurationVar(&o.wait, "wait", 30*time.Second, "how long to wait for agents (env MIRAGE_WAIT)")
	fs.StringVar(&o.policy, "policy", "balanced", "deployment policy: balanced, frontloading, nostaging, random or adaptive (env MIRAGE_POLICY)")
	fs.IntVar(&c.Diameter, "d", 3, "QT clustering diameter (0 groups identical profiles only)")
	fs.IntVar(&c.Parallelism, "parallel", deploy.DefaultParallelism, "worker-pool size for node testing within a wave")
	fs.IntVar(&c.ProfileParallelism, "profile-parallel", 0, "concurrent agent fingerprint RPCs while profiling the fleet (0 = default)")
	fs.BoolVar(&c.Inline, "inline", false, "legacy distribution: ship the full upgrade payload inline in every test/integrate frame instead of content-addressed chunk manifests")
	fs.BoolVar(&c.NoPeers, "no-peers", false, "disable peer swarming: every missed chunk is pushed by the vendor even when gated agents could serve it")
	fs.BoolVar(&o.showPlan, "plan", false, "print the staged wave schedule before deploying")
	fs.StringVar(&o.urrFile, "urr", "", "save the report repository to this file after deployment")
	fs.StringVar(&o.journal, "journal", "", "write-ahead deployment journal file for the one-shot rollout: every state transition is persisted, making the deployment durable and resumable")
	fs.BoolVar(&o.resume, "resume", false, "resume the rollout recorded in -journal (skip stages and members it records as done) instead of starting fresh")
	fs.BoolVar(&o.serve, "serve", false, "control-plane mode: expose the HTTP admin API on -admin and start rollouts on demand (mirage-ctl) instead of running one and exiting (env MIRAGE_SERVE)")
	fs.StringVar(&c.Admin, "admin", "127.0.0.1:7080", "address for the HTTP control plane (one-shot mode serves it too, so a running rollout can be paused or aborted) (env MIRAGE_ADMIN_ADDR)")
	fs.StringVar(&c.JournalDir, "journal-dir", "", "directory for per-rollout journals in -serve mode (empty = unjournaled rollouts unless the start request names a journal) (env MIRAGE_JOURNAL_DIR)")
	fs.IntVar(&c.Shards, "shards", 0, "agent-registry shard count, rounded up to a power of two (0 = derive from GOMAXPROCS); more shards mean less lock contention under registration storms and concurrent rollouts (env MIRAGE_SHARDS)")
	fs.IntVar(&c.WorkerBudget, "worker-budget", 0, "vendor-wide cap on concurrently in-flight member RPCs shared by ALL rollouts (0 = unlimited); individual rollouts still honor -parallel within it (env MIRAGE_WORKER_BUDGET)")
	fs.IntVar(&c.MaxRollouts, "max-rollouts", 0, "admission control: rollouts allowed to execute concurrently (0 = unbounded); POST /rollouts beyond this and -max-queued returns 429 (env MIRAGE_MAX_ROLLOUTS)")
	fs.IntVar(&c.MaxQueued, "max-queued", 0, "rollouts allowed to queue for an execution slot when -max-rollouts are active (0 = reject immediately) (env MIRAGE_MAX_QUEUED)")
	fs.BoolVar(&c.Pprof, "pprof", false, "serve net/http/pprof under /debug/pprof/ on the admin API")
	fs.BoolVar(&o.autoRollback, "auto-rollback", false, "journaled automatic rollback: when the vendor abandons the upgrade, drive every integrated member back to the mysql 4.1.22 baseline through the chunk machinery in reverse")
	fs.Float64Var(&o.gate.BaselineFailureRate, "gate-baseline", 0, "canary gate: expected baseline failure rate (see -gate-min-samples)")
	fs.Float64Var(&o.gate.MaxExcessRate, "gate-excess", 0, "canary gate: tolerated excess failure rate over -gate-baseline")
	fs.IntVar(&o.gate.MinSamples, "gate-min-samples", 0, "canary gate: minimum validation verdicts before the gate decides; 0 disables the gate (classic binary representative pass/fail)")
	f := &c.Faults
	fs.Uint64Var(&f.Seed, "fault-seed", 1, "chaos: seed for the deterministic per-agent fault streams")
	fs.Float64Var(&f.Drop, "fault-drop", 0, "chaos: probability a vendor→agent call is dropped before delivery (connection dies)")
	fs.Float64Var(&f.Delay, "fault-delay", 0, "chaos: probability a call is delayed by -fault-delay-by")
	fs.DurationVar(&f.DelayBy, "fault-delay-by", 2*time.Millisecond, "chaos: injected latency for delay faults")
	fs.Float64Var(&f.Corrupt, "fault-corrupt", 0, "chaos: probability a pushed chunk payload is corrupted in flight (the content address catches it)")
	fs.Float64Var(&f.Reset, "fault-reset", 0, "chaos: probability the connection resets after the agent did the work but before the reply is seen")
	fs.IntVar(&f.MaxFaults, "fault-max", 0, "chaos: total rate-fault budget, 0 = unlimited (crash schedules don't consume it)")
	o.log = logx.Flags(fs)
	for _, e := range envOverrides {
		if v, ok := lookup(e.env); ok {
			if err := fs.Set(e.flag, v); err != nil {
				err = fmt.Errorf("invalid value %q for %s: %w", v, e.env, err)
				fmt.Fprintln(fs.Output(), err)
				return nil, err
			}
		}
	}
	if err := fs.Parse(args); err != nil {
		return nil, err
	}
	if c.Admin == "" {
		// Both modes serve the admin API.
		err := errors.New("-admin (MIRAGE_ADMIN_ADDR) must name an address")
		fmt.Fprintln(fs.Output(), err)
		return nil, err
	}
	if o.gate.Enabled = o.gate.MinSamples > 0; !o.gate.Enabled {
		o.gate = staging.GatePolicy{}
	}
	return o, nil
}

func main() {
	o, err := parseFlags(os.Args[1:], os.LookupEnv)
	if errors.Is(err, flag.ErrHelp) {
		os.Exit(0)
	}
	if err != nil {
		os.Exit(exitUsage)
	}
	if _, err := o.log.Setup(); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(exitUsage)
	}
	if o.resume && o.journal == "" {
		fmt.Fprintln(os.Stderr, "-resume requires -journal")
		os.Exit(exitUsage)
	}
	pol, ok := staging.ParsePolicy(o.policy) // validate before waiting on agents
	if !ok {
		fmt.Fprintf(os.Stderr, "unknown policy %q\n", o.policy)
		os.Exit(exitUsage)
	}

	st, err := vendorstack.New(o.stack)
	if err != nil {
		fatal("vendor startup failed", "err", err)
	}
	defer st.Close()
	srv := st.Server
	slog.Info("vendor listening", "addr", srv.Addr(), "agents_expected", o.agents)
	if got := srv.WaitForAgents(o.agents, o.wait); got < o.agents {
		fatal("agents missing at deadline", "registered", got, "expected", o.agents)
	}
	names := srv.Agents()
	slog.Info("agents registered", "names", names)

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// Ask every agent to identify resources and record baselines.
	for _, name := range names {
		if _, err := srv.Identify(ctx, name, "mysql", [][]string{{"SELECT 1"}, {"SELECT 2"}}); err != nil {
			fatal("identify mysql failed", "agent", name, "err", err)
		}
		if _, err := srv.Record(ctx, name, "mysql", []string{"SELECT 1"}); err != nil {
			fatal("record mysql failed", "agent", name, "err", err)
		}
		// PHP identification fails harmlessly where PHP is absent; the
		// model just produces an empty-ish trace.
		if _, err := srv.Identify(ctx, name, "php", [][]string{nil}); err != nil {
			fatal("identify php failed", "agent", name, "err", err)
		}
		if _, err := srv.Record(ctx, name, "php", nil); err != nil {
			fatal("record php failed", "agent", name, "err", err)
		}
	}

	rc, err := st.Profile(ctx)
	if err != nil {
		fatal("fleet clustering failed", "err", err)
	}
	dcs := rc.Deploy
	slog.Info("fleet profiled", "agents", len(rc.Profiles),
		"distinct_profiles", profile.Distinct(rc.Profiles), "clusters", len(rc.Clusters))
	for _, c := range rc.Clusters {
		slog.Info("cluster", "detail", c.String())
	}

	// The orchestrator owns every rollout this vendor runs, one-shot or
	// served; the admin API is mounted either way so mirage-ctl can
	// observe and control whatever is running.
	urr := report.New()
	launch := func(req orchestrator.StartRequest) (orchestrator.Spec, error) {
		p := pol
		if req.Policy != "" {
			parsed, ok := staging.ParsePolicy(req.Policy)
			if !ok {
				return orchestrator.Spec{}, fmt.Errorf("unknown policy %q", req.Policy)
			}
			p = parsed
		}
		gate := o.gate
		if req.GateMinSamples > 0 {
			gate = req.GatePolicy()
		}
		return orchestrator.Spec{
			Policy:       p,
			Upgrade:      scenario.MySQLUpgrade(),
			Clusters:     dcs,
			Fix:          fix,
			URR:          urr,
			Journal:      req.Journal,
			Resume:       req.Resume,
			Rebuild:      rebuildRelease,
			Gate:         gate,
			Baseline:     scenario.MySQLBaseline(),
			AutoRollback: o.autoRollback || req.AutoRollback,
			Drift:        req.DriftPolicy(),
			Restage:      st.Restage,
		}, nil
	}
	admin, err := st.Serve(ctx, launch)
	if err != nil {
		fatal("control plane failed", "err", err)
	}
	slog.Info("control plane up", "url", "http://"+admin)

	if o.serve {
		// Control-plane mode: rollouts arrive over HTTP; run until
		// interrupted (SIGINT or SIGTERM), then drain: refuse new
		// admissions, abort whatever is queued or executing, and exit on
		// the final statuses.
		<-ctx.Done()
		drainCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		statuses := st.Drain(drainCtx)
		cancel()
		code := 0
		for _, rs := range statuses {
			if rs.State != orchestrator.StateSucceeded {
				code = exitRollout
			}
		}
		if o.urrFile != "" {
			saveURR(urr, o.urrFile)
		}
		os.Exit(code)
	}

	// One-shot mode: start a single rollout on the orchestrator and wait.
	spec, err := launch(orchestrator.StartRequest{})
	if err != nil {
		fatal("building rollout spec failed", "err", err)
	}
	spec.Journal, spec.Resume = o.journal, o.resume
	if o.showPlan {
		ctl := deploy.NewController(urr, nil)
		fmt.Print(ctl.PlanFor(pol, dcs).Describe())
	}
	h, err := st.Orch.Start(ctx, spec)
	if err != nil {
		fatal("starting rollout failed", "err", err)
	}
	// The rollout ID is the operator's handle: mirage-ctl status/pause/
	// abort target it on the admin API while the rollout runs.
	fmt.Printf("rollout %s started (policy=%s, admin http://%s)\n", h.ID(), spec.Policy, admin)
	out, err := h.Wait(context.Background())
	rs := h.Status()
	if err != nil {
		// An aborted rollout is a verdict on the rollout (exit 3); every
		// other error here — journal I/O halting the plan, a resume
		// refusal, node infrastructure — is tooling trouble (exit 1).
		// The other exit-3 case, vendor abandonment (which covers "the
		// gate never converged": rounds exhaust and the upgrade is
		// abandoned), returns with err == nil and is handled below.
		slog.Error("rollout failed", "rollout", h.ID(), "err", err)
		if rs.State == orchestrator.StateAborted {
			os.Exit(exitRollout)
		}
		os.Exit(exitInfra)
	}
	fmt.Printf("rollout %s: policy=%v integrated=%d/%d overhead=%d rounds=%d abandoned=%v quarantined=%d final=%s\n",
		h.ID(), out.Policy, out.Integrated(), len(out.Nodes), out.Overhead, out.Rounds, out.Abandoned, len(out.Quarantined), out.FinalID)
	for _, name := range out.Quarantined {
		slog.Warn("member quarantined (unreachable through retries)", "node", name)
	}
	mode := "chunked"
	if o.stack.Inline {
		mode = "inline"
	}
	fmt.Printf("transfer mode=%s frames=%d bytes=%d chunk_bytes=%d chunk_hits=%d chunk_misses=%d\n",
		mode, out.Transfer.FramesSent, out.Transfer.BytesSent, out.Transfer.ChunkBytes,
		out.Transfer.ChunkHits, out.Transfer.ChunkMisses)
	fmt.Printf("peer tier peer_bytes=%d peer_hits=%d vendor_fallbacks=%d\n",
		out.Transfer.PeerBytes, out.Transfer.PeerHits, out.Transfer.VendorFallbacks)
	for _, g := range urr.GroupFailures("mysql-5.0.22") {
		fmt.Printf("failure mode %q: %d report(s) from clusters %v\n",
			g.Signature, len(g.Reports), g.Clusters)
	}
	if o.urrFile != "" {
		saveURR(urr, o.urrFile)
	}
	if out.RolledBack {
		rb := out.Rollback
		fmt.Printf("rollout %s abandoned and rolled back to %s: reverted=%d skipped=%d rollback_chunks=%d faults_injected=%d\n",
			h.ID(), rb.BaselineID, len(rb.Reverted), len(rb.Skipped),
			out.Transfer.ChunksRolledBack, out.Transfer.FaultsInjected)
		for name, reason := range rb.Skipped {
			slog.Warn("rollback skipped member", "node", name, "reason", reason)
		}
		os.Exit(exitRollout)
	}
	if out.Abandoned {
		fmt.Printf("rollout %s abandoned: the upgrade could not be fixed\n", h.ID())
		os.Exit(exitRollout)
	}
}

func saveURR(urr *report.URR, path string) {
	f, err := os.Create(path)
	if err != nil {
		fatal("creating URR file failed", "err", err)
	}
	if err := urr.Save(f); err != nil {
		fatal("saving URR failed", "err", err)
	}
	if err := f.Close(); err != nil {
		fatal("closing URR file failed", "err", err)
	}
	slog.Info("saved report repository", "reports", urr.Len(), "path", path)
}

// fix is the vendor debugging loop: release a corrected upgrade
// addressing every reported failure.
func fix(up *pkgmgr.Upgrade, failures []*report.Report) (*pkgmgr.Upgrade, bool) {
	fixed := scenario.MySQLFixedUpgrade(up.ID + "-fix")
	slog.Info("vendor debugging failures, releasing fix", "failures", len(failures), "release", fixed.ID)
	return fixed, true
}

// rebuildRelease is the vendor's release store for journal resume: it
// maps any upgrade ID this vendor can have shipped — the original, a
// "-fix" re-release, or the rollback baseline — back to its artifact, so
// a resumed rollout continues from the version the journal ended on.
func rebuildRelease(id string) (*pkgmgr.Upgrade, bool) {
	up, base := scenario.MySQLUpgrade(), scenario.MySQLBaseline()
	switch {
	case id == up.ID:
		return up, true
	case id == base.ID:
		return base, true
	case strings.HasSuffix(id, "-fix") && strings.HasPrefix(id, up.ID):
		return scenario.MySQLFixedUpgrade(id), true
	}
	return nil, false
}
