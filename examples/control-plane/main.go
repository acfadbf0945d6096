// Control-plane walkthrough: Mirage's rollout lifecycle driven entirely
// through the HTTP admin API, the way an operator (or mirage-ctl) does.
//
// The program builds a networked fleet (vendor transport server + six TCP
// agents), mounts the orchestrator's HTTP control plane, and then — as a
// pure HTTP client — starts a journaled staged rollout, watches its event
// stream by long-poll, pauses it at a stage barrier, inspects the half
// deployed fleet, resumes it, waits for convergence, and finally starts a
// second concurrent rollout to show the orchestrator multiplexing, and —
// the failure half of the lifecycle — a rollout whose canary gate fails
// on a fleet with legacy user configuration, ending not stranded but in
// a journaled automatic rollback to the baseline version. A final act
// shows live-fleet drift gating: a rollout started with a hold drift
// policy pauses at a stage barrier when a member of its plan drifts
// mid-flight, and resumes on the operator's acknowledgement. Every
// control action goes over the wire; nothing touches the Handle
// directly.
//
//	go run ./examples/control-plane
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/deploy"
	"repro/internal/machine"
	"repro/internal/orchestrator"
	"repro/internal/rollout"
	"repro/internal/scenario"
	"repro/internal/staging"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/vendorstack"
)

func main() {
	ctx := context.Background()

	// 1. The vendor stack exactly as mirage-vendor builds it: transport
	// server and an orchestrator journaling one file per rollout, sharing
	// one telemetry registry and tracer that GET /metrics and
	// GET /rollouts/{id}/trace serve. The production sizing knobs
	// (Shards, WorkerBudget, MaxRollouts/MaxQueued) stay unset: a
	// six-agent walkthrough needs none of them.
	dir, err := os.MkdirTemp("", "mirage-control-plane")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	stack, err := vendorstack.New(vendorstack.Config{
		Listen: "127.0.0.1:0", Admin: "127.0.0.1:0", JournalDir: dir,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer stack.Close()
	srv, orch := stack.Server, stack.Orch

	// 2. A networked fleet: six agents over loopback TCP, grouped into
	// three clusters of deployment. Chunks travel as binary frames on the
	// control channel; a production fleet would additionally start each
	// agent with -peer-listen so later waves pull chunk misses from
	// already-gated peers.
	machines := map[string]*machine.Machine{}
	var names []string
	for c := 0; c < 3; c++ {
		for _, role := range []string{"rep", "oth"} {
			name := fmt.Sprintf("c%d-%s", c, role)
			names = append(names, name)
			machines[name] = scenario.BuildMySQLMachine(scenario.MySQLMachineSpec{Name: name, Distro: "ubt"})
			go transport.NewAgent(machines[name]).Run(srv.Addr())
		}
	}
	if got := srv.WaitForAgents(len(names), 5*time.Second); got != len(names) {
		log.Fatalf("agents: %d/%d", got, len(names))
	}
	clusters := func() []*deploy.Cluster {
		var cs []*deploy.Cluster
		for c := 0; c < 3; c++ {
			cs = append(cs, &deploy.Cluster{
				ID: deploy.ClusterName(c), Distance: c + 1,
				Representatives: []deploy.Node{srv.Node(fmt.Sprintf("c%d-rep", c))},
				Others:          []deploy.Node{srv.Node(fmt.Sprintf("c%d-oth", c))},
			})
		}
		return cs
	}

	// The admin API, served exactly as mirage-vendor -serve serves it.
	// rbClusters is filled in act 7: the fleet the rollback walkthrough
	// runs over. The launcher routes armed requests to it.
	var rbClusters []*deploy.Cluster
	admin, err := stack.Serve(ctx, func(req orchestrator.StartRequest) (orchestrator.Spec, error) {
		policy := deploy.PolicyBalanced
		if req.Policy != "" {
			if p, ok := staging.ParsePolicy(req.Policy); ok {
				policy = p
			}
		}
		if req.AutoRollback {
			return orchestrator.Spec{
				Policy:       policy,
				Upgrade:      scenario.MySQLUpgrade(),
				Clusters:     rbClusters,
				Baseline:     scenario.MySQLBaseline(),
				AutoRollback: true,
				Gate:         req.GatePolicy(),
				Journal:      req.Journal,
				Resume:       req.Resume,
			}, nil
		}
		return orchestrator.Spec{
			Policy:   policy,
			Upgrade:  scenario.MySQLUpgrade(),
			Clusters: clusters(),
			Drift:    req.DriftPolicy(),
			Journal:  req.Journal,
			Resume:   req.Resume,
		}, nil
	})
	if err != nil {
		log.Fatal(err)
	}
	base := "http://" + admin
	fmt.Printf("control plane on %s\n", base)

	// 3. From here on we are an HTTP client only — the mirage-ctl library.
	ctl := &orchestrator.Client{Base: base, HTTP: &http.Client{}}

	st, err := ctl.Start(ctx, orchestrator.StartRequest{Policy: "balanced"})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("started rollout %s: policy=%s stages=%d journal=%s\n",
		st.ID, st.Policy, st.Stages, filepath.Base(st.Journal))

	// 4. Pause. The rollout finishes whatever stage is in flight and then
	// holds at the next stage barrier — stages are the unit of
	// consistency, so however the pause races the plan, the held fleet is
	// always a clean prefix of it: some clusters done, the rest untouched.
	if _, err := ctl.Pause(ctx, st.ID); err != nil {
		log.Fatal(err)
	}
	for st.State != orchestrator.StatePaused && !st.State.Terminal() {
		if st, err = ctl.Get(ctx, st.ID); err != nil {
			log.Fatal(err)
		}
	}
	if st.State == orchestrator.StatePaused {
		fmt.Printf("held at a stage barrier (%d gates passed, %d/%d integrated):\n",
			st.GatesPassed, st.Integrated, len(st.Members))
		for _, name := range names {
			ref, _ := machines[name].Package("mysql")
			fmt.Printf("  %-8s mysql %s\n", name, ref.Version)
		}
	}

	// 5. Resume, drain the event stream by long-poll, wait for the end.
	if _, err := ctl.Resume(ctx, st.ID); err != nil {
		log.Fatal(err)
	}
	since := 0
	for {
		page, err := ctl.Events(ctx, st.ID, since, 2*time.Second)
		if err != nil {
			log.Fatal(err)
		}
		for _, ev := range page.Events {
			if ev.Type == rollout.RecTested || ev.Type == rollout.RecGate {
				fmt.Printf("  event %-11s stage=%d node=%s\n", ev.Type, ev.Stage, ev.Node)
			}
		}
		since = page.Next
		if page.Done {
			break
		}
	}
	st, err = ctl.Wait(ctx, st.ID, 10*time.Second)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rollout %s: %s, %d/%d integrated, final=%s\n",
		st.ID, st.State, st.Integrated, len(st.Members), st.FinalID)

	// 6. The orchestrator multiplexes: a second rollout (urgent path,
	// NoStaging) runs through the same fleet while we watch the list.
	st2, err := ctl.Start(ctx, orchestrator.StartRequest{Policy: "nostaging"})
	if err != nil {
		log.Fatal(err)
	}
	if st2, err = ctl.Wait(ctx, st2.ID, 10*time.Second); err != nil {
		log.Fatal(err)
	}
	all, err := ctl.List(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("rollouts on this control plane:")
	for _, s := range all {
		fmt.Printf("  %-4s %-10s policy=%-10s integrated=%d/%d events=%d\n",
			s.ID, s.State, s.Policy, s.Integrated, len(s.Members), s.Events)
	}

	// 7. The failure half of the lifecycle: gate failure → journaled
	// automatic rollback. A second fleet joins; its far cluster carries a
	// legacy ~/.my.cnf whose option syntax MySQL 5 rejects (the paper's §5
	// user-configuration incompatibility) and there is no fixer, so the
	// rollout must abandon. The start request arms auto_rollback with a
	// canary gate; the near cluster integrates 5.0.22 first, the far
	// cluster's representative fails its gate, and instead of stranding
	// the fleet half-upgraded the control plane drives every integrated
	// member back to 4.1.22 — each revert a durable journal record.
	var rbNames []string
	for c := 0; c < 2; c++ {
		for _, role := range []string{"rep", "oth"} {
			name := fmt.Sprintf("rb-c%d-%s", c, role)
			rbNames = append(rbNames, name)
			m := scenario.BuildMySQLMachine(scenario.MySQLMachineSpec{Name: name, Distro: "ubt", UserCnf: c == 1})
			machines[name] = m
			go transport.NewAgent(m).Run(srv.Addr())
		}
	}
	total := len(names) + len(rbNames)
	if got := srv.WaitForAgents(total, 5*time.Second); got != total {
		log.Fatalf("agents: %d/%d", got, total)
	}
	// Enroll mysql usage on the new fleet: validation only exercises the
	// applications a machine's usage store has recorded, so without this
	// every sandboxed test would be vacuously green.
	for _, name := range rbNames {
		if _, err := srv.Identify(ctx, name, "mysql", [][]string{{"SELECT 1"}}); err != nil {
			log.Fatal(err)
		}
		if _, err := srv.Record(ctx, name, "mysql", []string{"SELECT 1"}); err != nil {
			log.Fatal(err)
		}
	}
	for c := 0; c < 2; c++ {
		rbClusters = append(rbClusters, &deploy.Cluster{
			ID: fmt.Sprintf("rb-%d", c), Distance: c + 1,
			Representatives: []deploy.Node{srv.Node(fmt.Sprintf("rb-c%d-rep", c))},
			Others:          []deploy.Node{srv.Node(fmt.Sprintf("rb-c%d-oth", c))},
		})
	}
	st3, err := ctl.Start(ctx, orchestrator.StartRequest{
		Policy:        "balanced",
		AutoRollback:  true,
		GateMaxExcess: 0.1, GateMinSamples: 1,
	})
	if err != nil {
		log.Fatal(err)
	}
	if st3, err = ctl.Wait(ctx, st3.ID, 10*time.Second); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rollout %s: %s — %d members rolled back to %s\n",
		st3.ID, st3.State, st3.RolledBack, st3.Baseline)
	for _, name := range rbNames {
		ref, _ := machines[name].Package("mysql")
		fmt.Printf("  %-9s mysql %s\n", name, ref.Version)
	}
	recs, err := rollout.Load(st3.Journal)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("journal %s sealed with %q — the rollout can never half-resume\n",
		filepath.Base(st3.Journal), recs[len(recs)-1].Type)

	// 8. Live-fleet drift gating. A rollout's plan is built from a
	// snapshot of the fleet; machines keep changing underneath it. Started
	// with drift_action=hold (and the default drift_max of zero), the
	// first rep-invalidating drifted member pauses the rollout at its next
	// stage barrier with Status.DriftHold naming the cluster over budget,
	// and resume is the operator's acknowledgement. In mirage-vendor these
	// events come from the fleetwatch monitor folding agents' -watch
	// profile-delta pushes; this walkthrough fleet was clustered by hand,
	// so we bridge one event into the orchestrator directly, exactly as
	// the vendor stack's drift bridge does.
	var st4 orchestrator.Status
	for attempt := 0; ; attempt++ {
		if st4, err = ctl.Start(ctx, orchestrator.StartRequest{
			Policy: "balanced", DriftAction: "hold",
		}); err != nil {
			log.Fatal(err)
		}
		orch.NotifyDrift(orchestrator.DriftEvent{
			Machine: "c1-oth", To: "somewhere-new", Class: "drifted", Version: 1,
		})
		for st4.DriftHold == "" && !st4.State.Terminal() {
			if st4, err = ctl.Get(ctx, st4.ID); err != nil {
				log.Fatal(err)
			}
		}
		if st4.DriftHold != "" {
			break
		}
		// The six-agent rollout outran the drift event; run it again.
		if attempt == 5 {
			log.Fatalf("rollout %s never observed the drift event", st4.ID)
		}
	}
	fmt.Printf("rollout %s drift-held: %s (drifted=%d)\n",
		st4.ID, st4.DriftHold, st4.Drifted)
	for st4.State != orchestrator.StatePaused && !st4.State.Terminal() {
		if st4, err = ctl.Get(ctx, st4.ID); err != nil {
			log.Fatal(err)
		}
	}
	if st4.State == orchestrator.StatePaused {
		if _, err := ctl.Resume(ctx, st4.ID); err != nil {
			log.Fatal(err)
		}
	}
	if st4, err = ctl.Wait(ctx, st4.ID, 10*time.Second); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("rollout %s after operator ack: %s, %d/%d integrated (c1-oth drifted=%v)\n",
		st4.ID, st4.State, st4.Integrated, len(st4.Members),
		st4.Members["c1-oth"].Drifted)

	// 9. Observability: the same admin mux serves liveness, Prometheus
	// metrics (the scalar families plus the telemetry registry's latency
	// histograms) and each rollout's span trace — raw JSON or Chrome
	// trace-event format that loads straight into Perfetto. With
	// MIRAGE_METRICS_OUT / MIRAGE_TRACE_OUT set the scrapes are saved to
	// files; CI runs this program exactly that way and asserts on them.
	fetch := func(path string) []byte {
		resp, err := http.Get(base + path)
		if err != nil {
			log.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			log.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			log.Fatalf("GET %s: %s: %s", path, resp.Status, body)
		}
		return body
	}
	health := fetch("/healthz")
	metrics := fetch("/metrics")
	for _, fam := range []string{
		"mirage_rpc_latency_seconds", "mirage_member_duration_seconds",
		"mirage_budget_wait_seconds", "mirage_journal_fsync_seconds",
	} {
		if !strings.Contains(string(metrics), "# TYPE "+fam+" histogram") {
			log.Fatalf("/metrics is missing histogram family %s", fam)
		}
	}
	var snap telemetry.TraceSnapshot
	if err := json.Unmarshal(fetch("/rollouts/"+st.ID+"/trace"), &snap); err != nil {
		log.Fatal(err)
	}
	kinds := map[string]int{}
	for _, s := range snap.Spans {
		kinds[s.Kind]++
	}
	for _, k := range []string{"rollout", "stage", "wave", "test", "integrate", "rpc"} {
		if kinds[k] == 0 {
			log.Fatalf("trace for %s has no %q spans (got %v)", st.ID, k, kinds)
		}
	}
	chrome := fetch("/rollouts/" + st.ID + "/trace?format=chrome")
	fmt.Printf("observability: healthz=%s\n", strings.TrimSpace(string(health)))
	fmt.Printf("observability: /metrics %d bytes; trace for %s: %d spans (%d rpc), chrome export %d bytes\n",
		len(metrics), st.ID, len(snap.Spans), kinds["rpc"], len(chrome))
	if out := os.Getenv("MIRAGE_METRICS_OUT"); out != "" {
		if err := os.WriteFile(out, metrics, 0o644); err != nil {
			log.Fatal(err)
		}
	}
	if out := os.Getenv("MIRAGE_TRACE_OUT"); out != "" {
		if err := os.WriteFile(out, chrome, 0o644); err != nil {
			log.Fatal(err)
		}
	}
}
