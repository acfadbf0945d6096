package orchestrator

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/deploy"
	"repro/internal/telemetry"
)

func TestHealthzAndMetrics(t *testing.T) {
	orch := New(t.TempDir())
	orch.Budget = deploy.NewBudget(16)
	orch.Telemetry = telemetry.NewRegistry()
	orch.Telemetry.Func("mirage_registry_agents", "Registered agents per shard.", "gauge", "shard",
		func(emit func(string, float64)) {
			emit("0", 3)
			emit("1", 4)
		})
	api := &API{
		Orch: orch,
		Launch: func(req StartRequest) (Spec, error) {
			return Spec{Policy: deploy.PolicyBalanced, Upgrade: upgrade("v1"), Clusters: fleet("met", 1, nil)}, nil
		},
	}
	ts := httptest.NewServer(api.Handler())
	t.Cleanup(ts.Close)

	h, err := orch.Start(context.Background(), Spec{
		Policy: deploy.PolicyBalanced, Upgrade: upgrade("v1"), Clusters: fleet("met0", 1, nil)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /healthz = %d", resp.StatusCode)
	}
	var hz struct {
		Status   string `json:"status"`
		Rollouts int    `json:"rollouts"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&hz); err != nil {
		t.Fatal(err)
	}
	if hz.Status != "ok" || hz.Rollouts != 1 {
		t.Fatalf("healthz = %+v", hz)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", mresp.StatusCode)
	}
	if ct := mresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics Content-Type = %q", ct)
	}
	body, err := io.ReadAll(mresp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	for _, want := range []string{
		"# HELP mirage_rollouts_active",
		"# TYPE mirage_rollouts_active gauge",
		"mirage_rollouts_active 0",
		`mirage_rollouts{state="succeeded"} 1`,
		"mirage_worker_budget_cap 16",
		"mirage_worker_budget_in_flight 0",
		`mirage_registry_agents{shard="0"} 3`,
		`mirage_registry_agents{shard="1"} 4`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics output missing %q:\n%s", want, text)
		}
	}
	// HELP/TYPE must render once per family, not once per sample.
	if n := strings.Count(text, "# HELP mirage_registry_agents"); n != 1 {
		t.Fatalf("HELP for mirage_registry_agents rendered %d times, want 1", n)
	}
}

// TestTraceEndpoint runs one traced rollout and exercises both trace
// exports: the JSON snapshot must carry a rollout-rooted span tree, the
// chrome format must be loadable trace-event JSON, and rollouts the
// tracer never saw must 404.
func TestTraceEndpoint(t *testing.T) {
	orch := New(t.TempDir())
	orch.Telemetry = telemetry.NewRegistry()
	orch.Tracer = &telemetry.Tracer{}
	api := &API{Orch: orch}
	ts := httptest.NewServer(api.Handler())
	t.Cleanup(ts.Close)

	h, err := orch.Start(context.Background(), Spec{
		Policy: deploy.PolicyBalanced, Upgrade: upgrade("v1"), Clusters: fleet("tr", 1, nil)})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/rollouts/" + h.ID() + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET trace = %d", resp.StatusCode)
	}
	var snap telemetry.TraceSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.RolloutID != h.ID() || len(snap.Spans) == 0 {
		t.Fatalf("snapshot = %+v", snap)
	}
	kinds := map[string]bool{}
	for _, s := range snap.Spans {
		kinds[s.Kind] = true
	}
	for _, k := range []string{"rollout", "stage", "wave", "test", "integrate"} {
		if !kinds[k] {
			t.Fatalf("trace missing %q span (kinds %v)", k, kinds)
		}
	}

	cresp, err := http.Get(ts.URL + "/rollouts/" + h.ID() + "/trace?format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	defer cresp.Body.Close()
	var chrome struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.NewDecoder(cresp.Body).Decode(&chrome); err != nil {
		t.Fatal(err)
	}
	if len(chrome.TraceEvents) == 0 {
		t.Fatal("chrome export has no trace events")
	}

	nresp, err := http.Get(ts.URL + "/rollouts/" + h.ID() + "x/trace")
	if err != nil {
		t.Fatal(err)
	}
	nresp.Body.Close()
	if nresp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET trace for unknown rollout = %d, want 404", nresp.StatusCode)
	}
}

// TestMetricsWithoutTelemetry checks /metrics still serves the
// orchestrator's own gauges when no registry is wired.
func TestMetricsWithoutTelemetry(t *testing.T) {
	rec := httptest.NewRecorder()
	(&API{Orch: New(t.TempDir())}).Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	for _, want := range []string{"# TYPE mirage_rollouts_active gauge", "mirage_rollouts_active 0", "mirage_rollouts_queued 0"} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Fatalf("metrics output missing %q:\n%s", want, rec.Body.String())
		}
	}
}

func TestPprofGated(t *testing.T) {
	orch := New(t.TempDir())
	plain := httptest.NewServer((&API{Orch: orch}).Handler())
	t.Cleanup(plain.Close)
	resp, err := http.Get(plain.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		t.Fatal("pprof served without EnablePprof")
	}

	prof := httptest.NewServer((&API{Orch: orch, EnablePprof: true}).Handler())
	t.Cleanup(prof.Close)
	resp, err = http.Get(prof.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /debug/pprof/ with EnablePprof = %d", resp.StatusCode)
	}
}
