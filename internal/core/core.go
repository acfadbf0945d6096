// Package core is Mirage's top-level API: it wires the deployment,
// user-machine testing and reporting subsystems into the integrated
// upgrade development cycle of the paper (Figure 4).
//
// A Vendor owns the reference machine, the package repository, the parser
// registry and the Upgrade Report Repository. UserMachine wraps one
// managed machine with its trace store and validator and implements
// deploy.Node. A Fleet is the set of user machines; Vendor.ClusterFleet
// fingerprints every machine, diffs against the reference, runs the
// two-phase clustering algorithm, and produces the clusters of deployment
// that Vendor.StageDeployment then drives with a chosen protocol.
package core

import (
	"context"
	"fmt"
	"sort"
	"sync"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/deploy"
	"repro/internal/envid"
	"repro/internal/machine"
	"repro/internal/orchestrator"
	"repro/internal/parser"
	"repro/internal/pkgmgr"
	"repro/internal/profile"
	"repro/internal/report"
	"repro/internal/resource"
	"repro/internal/staging"
	"repro/internal/trace"
	"repro/internal/vmtest"
)

// Vendor is the upgrade producer: reference environment, package
// repository, parsers, resource identification and the report repository.
type Vendor struct {
	Reference  *machine.Machine
	Repo       *pkgmgr.Repository
	Registry   *parser.Registry
	Identifier *envid.Identifier
	URR        *report.URR

	// Resources caches the identified environmental resource references
	// per application name.
	Resources map[string][]string

	// ProfileParallelism bounds how many machines ClusterFleet profiles
	// concurrently (0 means profile.DefaultParallelism, 1 means serial).
	// The clustering result is identical at any setting.
	ProfileParallelism int

	// JournalPath, when set, makes StageDeployment a durable rollout: it
	// routes through the rollout engine, journaling every state
	// transition to this file. ResumeJournal resumes the rollout the file
	// records (hash-checked against the freshly built plan) instead of
	// starting over, and RebuildUpgrade — the vendor's release store —
	// maps journaled upgrade IDs back to artifacts when the interrupted
	// run had already released fixes.
	JournalPath    string
	ResumeJournal  bool
	RebuildUpgrade func(upgradeID string) (*pkgmgr.Upgrade, bool)
}

// NewVendor returns a vendor around the given reference machine, with the
// Mirage-supplied parser registry and an empty repository and URR.
func NewVendor(reference *machine.Machine) *Vendor {
	return &Vendor{
		Reference:  reference,
		Repo:       pkgmgr.NewRepository(),
		Registry:   parser.MirageRegistry().Clone(),
		Identifier: &envid.Identifier{},
		URR:        report.New(),
		Resources:  make(map[string][]string),
	}
}

// IdentifyResources traces the application on the reference machine under
// each workload and runs the identification heuristic (plus any vendor
// rules installed on v.Identifier). The result is cached and used for
// fleet fingerprinting and dependence tracking.
func (v *Vendor) IdentifyResources(app apps.App, workloads [][]string) *envid.Result {
	traces := make([]*trace.Trace, 0, len(workloads))
	for _, w := range workloads {
		traces = append(traces, app.Run(v.Reference, w))
	}
	res := v.Identifier.Identify(v.Reference, traces, app.Name())
	v.Resources[app.Name()] = res.Resources
	return res
}

// ReferenceFingerprint produces the vendor's item list for the identified
// resources of app — the list sent to every user machine for comparison.
func (v *Vendor) ReferenceFingerprint(app string) *resource.Set {
	fp := parser.NewFingerprinter(v.Registry)
	return fp.Fingerprint(v.Reference, v.Resources[app])
}

// UserMachine is one managed machine: production state, trace store,
// validator. It implements deploy.Node.
//
// Identification runs on user machines as well as at the vendor (the paper
// instruments both): vendor-identified resources miss files whose location
// is machine-dependent, such as configuration under $HOME, and miss
// applications only the user has installed. Local results are kept per
// application and merged with the vendor's for fingerprinting and
// dependence tracking.
type UserMachine struct {
	M     *machine.Machine
	Store *vmtest.Store

	vendor *Vendor
	local  map[string][]string // locally identified resources per app
}

// NewUserMachine wraps m as a Mirage-managed machine of vendor v.
func NewUserMachine(v *Vendor, m *machine.Machine) *UserMachine {
	return &UserMachine{M: m, Store: vmtest.NewStore(), vendor: v, local: make(map[string][]string)}
}

// Name implements deploy.Node.
func (u *UserMachine) Name() string { return u.M.Name }

// RecordBaseline traces one run of the application on the production
// machine, storing it for later upgrade validation.
func (u *UserMachine) RecordBaseline(app apps.App, inputs []string) vmtest.Recording {
	return u.Store.Record(app, u.M, inputs)
}

// IdentifyLocal runs the identification heuristic on this machine's own
// traces of app, using the vendor's rule set, and caches the result.
func (u *UserMachine) IdentifyLocal(app apps.App, workloads [][]string) *envid.Result {
	traces := make([]*trace.Trace, 0, len(workloads))
	for _, w := range workloads {
		traces = append(traces, app.Run(u.M, w))
	}
	res := u.vendor.Identifier.Identify(u.M, traces, app.Name())
	u.local[app.Name()] = res.Resources
	return res
}

// resourcesFor merges the vendor-identified and locally identified
// resource references for app, deduplicated and sorted.
func (u *UserMachine) resourcesFor(app string) []string {
	seen := make(map[string]bool)
	var out []string
	for _, refs := range [][]string{u.vendor.Resources[app], u.local[app]} {
		for _, r := range refs {
			if !seen[r] {
				seen[r] = true
				out = append(out, r)
			}
		}
	}
	sort.Strings(out)
	return out
}

// allResources returns the dependence map for this machine: every
// application known to the vendor or identified locally, with its merged
// resource references.
func (u *UserMachine) allResources() map[string][]string {
	names := make(map[string]bool)
	for a := range u.vendor.Resources {
		names[a] = true
	}
	for a := range u.local {
		names[a] = true
	}
	out := make(map[string][]string, len(names))
	for a := range names {
		out[a] = u.resourcesFor(a)
	}
	return out
}

// Fingerprint computes this machine's item set over the merged vendor and
// local resource references for app.
func (u *UserMachine) Fingerprint(app string) *resource.Set {
	fp := parser.NewFingerprinter(u.vendor.Registry)
	return fp.Fingerprint(u.M, u.resourcesFor(app))
}

// Profile implements profile.Source: the machine's diff profile against
// the vendor reference set for app, computed in-process. Safe to call
// concurrently across different machines (profile.Collect does), since it
// only reads the vendor's registry and resource caches.
func (u *UserMachine) Profile(_ context.Context, app string, vendor *resource.Set) (profile.Machine, error) {
	return profile.New(u.Name(), u.Fingerprint(app), vendor, u.M.AppSetKey()), nil
}

// TestUpgrade implements deploy.Node: validate the upgrade in an isolated
// snapshot, returning the report (with a report image attached on failure).
// Local validation is all in-process, so the context is only honoured
// between operations, not within one.
func (u *UserMachine) TestUpgrade(_ context.Context, up *pkgmgr.Upgrade) (*report.Report, error) {
	val := vmtest.NewValidator(u.M, u.vendor.Repo, u.Store)
	val.ResourcesByApp = u.allResources()
	rep, err := val.Validate(up)
	if err != nil {
		return nil, err
	}
	out := &report.Report{
		UpgradeID: up.ID,
		Machine:   u.M.Name,
		Success:   rep.OK(),
	}
	for _, verdict := range rep.Verdicts {
		if !verdict.OK {
			out.FailedApps = append(out.FailedApps, verdict.App)
			out.Reasons = append(out.Reasons, verdict.Reason)
		}
	}
	if !out.Success {
		out.Image = report.CaptureImage(rep.Sandbox)
	}
	return out, nil
}

// Integrate implements deploy.Node: apply the upgrade to the production
// system (validation already succeeded in the sandbox).
func (u *UserMachine) Integrate(_ context.Context, up *pkgmgr.Upgrade) error {
	mgr := pkgmgr.NewManager(u.M, u.vendor.Repo)
	_, err := mgr.Apply(up)
	return err
}

// Fleet is the set of machines Mirage manages for a vendor.
type Fleet struct {
	Machines []*UserMachine

	// mu guards the name index: Lookup may be called concurrently (the
	// old linear scan was read-only; the index is not).
	mu sync.Mutex
	// byName indexes Machines for Lookup; indexed records the machine
	// count at build time. The index is rebuilt whenever the count
	// changed, a hit's name no longer matches (rename), or the name is
	// absent (append, rename, miss) — so hits are O(1) and a miss costs
	// one rebuild, the price of the old linear scan. The one mutation a
	// rebuild-on-miss cannot see: an entry of Machines swapped for a
	// different machine of the same name keeps resolving to the removed
	// machine until some other rebuild happens.
	byName  map[string]*UserMachine
	indexed int
}

// NewFleet wraps raw machines into user machines of vendor v.
func NewFleet(v *Vendor, machines ...*machine.Machine) *Fleet {
	f := &Fleet{}
	for _, m := range machines {
		f.Machines = append(f.Machines, NewUserMachine(v, m))
	}
	return f
}

// Lookup returns the user machine with the given name, or nil.
func (f *Fleet) Lookup(name string) *UserMachine {
	f.mu.Lock()
	defer f.mu.Unlock()
	u := f.byName[name]
	if f.indexed != len(f.Machines) || u == nil || u.M.Name != name {
		f.byName = make(map[string]*UserMachine, len(f.Machines))
		for _, m := range f.Machines {
			f.byName[m.M.Name] = m
		}
		f.indexed = len(f.Machines)
		u = f.byName[name]
	}
	return u
}

// Clustering is the result of clustering a fleet for one application.
type Clustering struct {
	App      string
	Clusters []*cluster.Cluster
	// Deploy is the same clustering expressed as clusters of deployment
	// with representatives chosen (RepsPerCluster machines per cluster).
	Deploy []*deploy.Cluster
}

// ClusterFleet profiles every machine of the fleet against the vendor
// reference for app — concurrently, on the shared profile pipeline — runs
// the two-phase clustering algorithm with cfg, and selects repsPerCluster
// representatives per cluster (at least one). The remote clustering path
// (transport.Server.ClusterRemote) routes through the identical
// Collect → cluster.Run → Assemble pipeline, so local and networked
// fleets with the same fingerprints produce the same clusters.
func (v *Vendor) ClusterFleet(ctx context.Context, f *Fleet, app string, cfg cluster.Config, repsPerCluster int) (*Clustering, error) {
	if _, ok := v.Resources[app]; !ok {
		return nil, fmt.Errorf("core: no identified resources for application %q", app)
	}
	vendorSet := v.ReferenceFingerprint(app)

	sources := make([]profile.Source, len(f.Machines))
	for i, u := range f.Machines {
		sources[i] = u
	}
	profiles, err := profile.Collect(ctx, sources, app, vendorSet, v.ProfileParallelism)
	if err != nil {
		return nil, err
	}
	clusters := cluster.Run(cfg, profile.Fingerprints(profiles))

	dcs, err := profile.Assemble(clusters, repsPerCluster, func(name string) deploy.Node {
		if u := f.Lookup(name); u != nil {
			return u
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &Clustering{App: app, Clusters: clusters, Deploy: dcs}, nil
}

// StartDeployment launches the upgrade across the clustered fleet as a
// rollout on orch — with the vendor's URR, journal configuration and
// release store — and returns its handle: the cancellable, observable,
// pausable form of StageDeployment. Multiple deployments may run
// concurrently on one orchestrator, each with its own journal.
func (v *Vendor) StartDeployment(ctx context.Context, orch *orchestrator.Orchestrator, policy deploy.Policy, up *pkgmgr.Upgrade, cl *Clustering, fix deploy.Fixer) (*orchestrator.Handle, error) {
	return orch.Start(ctx, orchestrator.Spec{
		Policy: policy, Upgrade: up, Clusters: cl.Deploy, Fix: fix, URR: v.URR,
		Journal: v.JournalPath, Resume: v.ResumeJournal, Rebuild: v.RebuildUpgrade,
	})
}

// StageDeployment runs the upgrade across the clustered fleet under the
// given policy, debugging failures with fix. The wave schedule comes from
// the shared staging planner, so it is exactly the schedule the simulator
// predicts for this fleet; within each wave, nodes validate the upgrade
// concurrently on the controller's worker pool.
//
// StageDeployment is the synchronous convenience form: it submits the
// rollout to a private orchestrator and waits for the handle — one code
// path whether a deployment is driven by a blocking call or by the
// control-plane API. Cancelling ctx aborts the rollout (journaled as
// abandoned) and returns the partial outcome with ctx's error.
func (v *Vendor) StageDeployment(ctx context.Context, policy deploy.Policy, up *pkgmgr.Upgrade, cl *Clustering, fix deploy.Fixer) (*deploy.Outcome, error) {
	h, err := v.StartDeployment(ctx, orchestrator.New(""), policy, up, cl, fix)
	if err != nil {
		return nil, err
	}
	// The rollout's own context is ctx: Wait on Background so a cancelled
	// deployment still hands back its partial outcome instead of a bare
	// ctx.Err().
	return h.Wait(context.Background())
}

// DeploymentPlan returns the wave schedule StageDeployment would execute
// for the clustering — useful for dry-run inspection and for
// cross-checking a live rollout against its simulation. StageDeployment
// constructs its controller with the default shuffle seed, so the plan
// here is built with the same seed to keep the preview exact.
func (v *Vendor) DeploymentPlan(policy deploy.Policy, cl *Clustering) *staging.Plan {
	return staging.BuildPlan(policy, deploy.Refs(cl.Deploy), 0)
}

// Reproduce materializes the report image of a failed report into a local
// machine and re-runs the failed application on it, returning the trace —
// the vendor-side debugging loop the reporting subsystem enables.
func (v *Vendor) Reproduce(r *report.Report) (*trace.Trace, error) {
	if r.Image == nil {
		return nil, fmt.Errorf("core: report %d has no image", r.ID)
	}
	if len(r.FailedApps) == 0 {
		return nil, fmt.Errorf("core: report %d has no failed applications", r.ID)
	}
	model := apps.Lookup(r.FailedApps[0])
	if model == nil {
		return nil, fmt.Errorf("core: no model for application %q", r.FailedApps[0])
	}
	m := r.Image.Materialize()
	return model.Run(m, nil), nil
}
