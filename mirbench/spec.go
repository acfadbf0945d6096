package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// spec is BENCHMARK.json: the workloads and the metrics every run
// reports, with their units, direction and regression bounds.
type spec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadSpec `json:"workloads"`
	EndToEnd   []metricSpec   `json:"end_to_end"`
	PerLayer   []metricSpec   `json:"per_layer"`
}

type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func readSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// The metrics this program reports. BENCHMARK.json declares the same
// names and units (TestSpecMatchesBenchmarkJSON holds them together).
// Every end-to-end metric applies to every workload; README.md maps
// each to what it measures on each. Per-layer metrics of a layer a
// workload does not call read 0 there.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"converge_s", "s", "lower", 0.25},
	{"converge_cpu_s", "s", "lower", 0.25},
	{"item_p50_cpu_ms", "ms", "lower", 0.25},
	{"item_p90_cpu_ms", "ms", "lower", 0.25},
	{"read_p50_ms", "ms", "lower", 0.25},
	{"read_p50_cpu_ms", "ms", "lower", 0.25},
	{"wire_bytes_per_item", "B", "lower", 0.05},
	{"live_heap_mb", "MB", "lower", 0.10},
	{"op_ok_ratio", "ratio", "higher", 0.01},
}

var perLayer = []metricSpec{
	{"transport.test_rpc_ms.p50", "ms", "lower", 0},
	{"transport.test_rpc_ms.p99", "ms", "lower", 0},
	{"transport.integrate_rpc_ms.p50", "ms", "lower", 0},
	{"transport.integrate_rpc_ms.p99", "ms", "lower", 0},
	{"transport.rpc_attempts", "count", "lower", 0},
	{"transport.rpc_errors", "count", "lower", 0},
	{"transport.rpc_retries", "count", "lower", 0},
	{"transport.frames_per_member", "count", "lower", 0},
	{"transport.bytes_per_member", "B", "lower", 0},
	{"transport.register_s", "s", "lower", 0},
	{"distrib.manifest_first_ms", "ms", "lower", 0},
	{"distrib.manifest_repeat_ms", "ms", "lower", 0},
	{"distrib.vendor_chunk_mb", "MB", "lower", 0},
	{"distrib.peer_chunk_mb", "MB", "higher", 0},
	{"distrib.peer_share", "ratio", "higher", 0},
	{"distrib.chunk_hit_ratio", "ratio", "higher", 0},
	{"distrib.vendor_fallbacks", "count", "lower", 0},
	{"deploy.stage_s.p50", "s", "lower", 0},
	{"deploy.stage_s.max", "s", "lower", 0},
	{"deploy.stage_self_s", "s", "lower", 0},
	{"deploy.barrier_gap_ms.p50", "ms", "lower", 0},
	{"deploy.budget_saturated_share", "ratio", "higher", 0},
	{"deploy.budget_highwater", "count", "higher", 0},
	{"deploy.budget_wait_ms.p50", "ms", "lower", 0},
	{"deploy.budget_wait_ms.p99", "ms", "lower", 0},
	{"rollout.journal_records", "count", "lower", 0},
	{"rollout.journal_bytes_per_member", "B", "lower", 0},
	{"rollout.fsync_ms.p50", "ms", "lower", 0},
	{"rollout.fsync_ms.p99", "ms", "lower", 0},
	{"rollout.batch_records.p50", "count", "higher", 0},
	{"orchestrator.event_lag_ms.p90", "ms", "lower", 0},
	{"orchestrator.barrier_ms.p50", "ms", "lower", 0},
	{"staging.plan_ms", "ms", "lower", 0},
	{"cluster.run_s", "s", "lower", 0},
	{"cluster.first_fold_ms", "ms", "lower", 0},
	{"fleetwatch.stable", "count", "higher", 0},
	{"fleetwatch.migrated", "count", "lower", 0},
	{"fleetwatch.drifted", "count", "lower", 0},
	{"fleetwatch.resyncs", "count", "lower", 0},
	{"fleetwatch.gen_lag_ms.max", "ms", "lower", 0},
	{"go.alloc_bytes_per_item", "B", "lower", 0},
	{"go.gc_cycles", "count", "lower", 0},
	{"wall.converge_s", "s", "lower", 0},
	{"wall.item_p50_ms", "ms", "lower", 0},
	{"wall.item_p90_ms", "ms", "lower", 0},
	{"wall.read_p90_ms", "ms", "lower", 0},
	{"trace.overhead_ratio", "ratio", "lower", 0},
	{"trace.spans_dropped", "count", "lower", 0},
}
