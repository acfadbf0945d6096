package orchestrator

import (
	"net/http"
	"strings"

	"repro/internal/deploy"
	"repro/internal/telemetry"
)

// registerMetrics registers the orchestrator's scrape-time families on
// reg: rollout lifecycle gauges and, while a worker budget is installed,
// its occupancy.
func (o *Orchestrator) registerMetrics(reg *telemetry.Registry) {
	reg.Func("mirage_rollouts_active", "Rollouts currently holding an execution slot.", "gauge", "",
		func(emit func(string, float64)) { emit("", float64(o.Active())) })
	reg.Func("mirage_rollouts_queued", "Rollouts waiting in the admission queue.", "gauge", "",
		func(emit func(string, float64)) { emit("", float64(o.Queued())) })
	reg.Func("mirage_rollouts", "Rollouts by lifecycle state.", "gauge", "state",
		func(emit func(string, float64)) {
			states := make(map[State]int)
			for _, st := range o.Statuses() {
				states[st.State]++
			}
			for s, n := range states {
				emit(string(s), float64(n))
			}
		})
	budget := func(name, help string, read func(*deploy.Budget) int64) {
		reg.Func(name, help, "gauge", "", func(emit func(string, float64)) {
			if b := o.Budget; b != nil {
				emit("", float64(read(b)))
			}
		})
	}
	budget("mirage_worker_budget_cap", "Global worker budget size (concurrent member RPCs).",
		func(b *deploy.Budget) int64 { return int64(b.Cap()) })
	budget("mirage_worker_budget_in_flight", "Member RPCs currently holding a budget slot.", (*deploy.Budget).InFlight)
	budget("mirage_worker_budget_high_water", "Maximum concurrently held budget slots observed.", (*deploy.Budget).HighWater)
}

// metricsHandler serves GET /metrics from one registry: the vendor's
// Orch.Telemetry, which the transport and every rollout also book into,
// or — when none is wired — a private registry holding only the
// orchestrator's own gauges.
func (a *API) metricsHandler() http.HandlerFunc {
	reg := a.Orch.Telemetry
	if reg == nil {
		reg = telemetry.NewRegistry()
	}
	a.Orch.registerMetrics(reg)
	return func(w http.ResponseWriter, _ *http.Request) {
		var b strings.Builder
		reg.WritePrometheus(&b)
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		w.Write([]byte(b.String())) //nolint:errcheck — client gone is client's problem
	}
}

func (a *API) healthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"rollouts": len(a.Orch.Statuses()),
		"active":   a.Orch.Active(),
		"queued":   a.Orch.Queued(),
	})
}
