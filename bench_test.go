package repro

// One benchmark per table and figure of the paper's evaluation, plus
// ablation benches for the design choices called out in DESIGN.md.
// Benchmarks both measure the cost of each pipeline stage and re-assert
// the headline result of the experiment they regenerate, so
// `go test -bench=. -benchmem` doubles as a reproduction run.

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/benchjson"
	"repro/internal/cluster"
	"repro/internal/deploy"
	"repro/internal/fingerprint"
	"repro/internal/machine"
	"repro/internal/orchestrator"
	"repro/internal/parser"
	"repro/internal/pkgmgr"
	"repro/internal/report"
	"repro/internal/resource"
	"repro/internal/rollout"
	"repro/internal/scenario"
	"repro/internal/simulator"
	"repro/internal/staging"
	"repro/internal/survey"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// BenchmarkFigure1 regenerates the upgrade-frequency histogram.
func BenchmarkFigure1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ds := survey.Load()
		fig := ds.Figure1()
		total := 0
		for _, row := range fig {
			for _, n := range row {
				total += n
			}
		}
		if total != 50 {
			b.Fatalf("figure 1 total = %d", total)
		}
	}
}

// BenchmarkFigure2 regenerates the reluctance cross-table.
func BenchmarkFigure2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ds := survey.Load()
		fig := ds.Figure2()
		if fig[true][true]+fig[true][false] != 35 {
			b.Fatal("refrainers != 70%")
		}
	}
}

// BenchmarkFigure3 regenerates the failure-rate histogram.
func BenchmarkFigure3(b *testing.B) {
	for i := 0; i < b.N; i++ {
		ds := survey.Load()
		if ds.MedianFailureRate() != 5 {
			b.Fatal("median != 5")
		}
	}
}

// BenchmarkTable1 runs the identification heuristic over all four
// application populations and checks the published row values.
func BenchmarkTable1(b *testing.B) {
	want := map[string][5]int{
		"firefox": {907, 839, 1, 23, 7},
		"apache":  {400, 251, 133, 0, 2},
		"php":     {215, 206, 0, 0, 0},
		"mysql":   {286, 250, 0, 33, 1},
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, p := range scenario.Table1Populations() {
			row, _ := scenario.EvaluateTable1(p)
			got := [5]int{row.FilesTotal, row.EnvResources, row.FalsePositives, row.FalseNegatives, row.VendorRules}
			if got != want[p.App] {
				b.Fatalf("%s: %v != %v", p.App, got, want[p.App])
			}
		}
	}
}

// BenchmarkFigure6 clusters the Table 2 machines with full parsers.
func BenchmarkFigure6(b *testing.B) {
	for i := 0; i < b.N; i++ {
		clusters := cluster.Run(cluster.Config{Diameter: 3},
			scenario.MySQLFingerprints(scenario.MySQLFullRegistry()))
		q := cluster.Evaluate(clusters, scenario.MySQLBehavior())
		if !q.Sound() || q.C != 12 {
			b.Fatalf("fig6: C=%d w=%d", q.C, q.W)
		}
	}
}

// BenchmarkFigure7 clusters with Mirage-supplied parsers only.
func BenchmarkFigure7(b *testing.B) {
	for i := 0; i < b.N; i++ {
		clusters := cluster.Run(cluster.Config{Diameter: 3},
			scenario.MySQLFingerprints(scenario.MySQLMirageRegistry()))
		if q := cluster.Evaluate(clusters, scenario.MySQLBehavior()); q.W != 2 {
			b.Fatalf("fig7: w=%d", q.W)
		}
	}
}

// BenchmarkFigure8 clusters the Firefox machines with full parsers.
func BenchmarkFigure8(b *testing.B) {
	for i := 0; i < b.N; i++ {
		clusters := cluster.Run(cluster.Config{Diameter: 3},
			scenario.FirefoxFingerprints(scenario.FirefoxFullRegistry()))
		if q := cluster.Evaluate(clusters, scenario.FirefoxBehavior()); !q.Sound() || q.C != 2 {
			b.Fatalf("fig8: C=%d w=%d", q.C, q.W)
		}
	}
}

// BenchmarkFigure9 runs both diameters of the Firefox content-only setup.
func BenchmarkFigure9(b *testing.B) {
	for i := 0; i < b.N; i++ {
		left := cluster.Run(cluster.Config{Diameter: 4},
			scenario.FirefoxFingerprints(scenario.FirefoxMirageRegistry()))
		right := cluster.Run(cluster.Config{Diameter: 6},
			scenario.FirefoxFingerprints(scenario.FirefoxMirageRegistry()))
		ql := cluster.Evaluate(left, scenario.FirefoxBehavior())
		qr := cluster.Evaluate(right, scenario.FirefoxBehavior())
		if !ql.Ideal() || qr.W != 3 {
			b.Fatalf("fig9: left ideal=%v right w=%d", ql.Ideal(), qr.W)
		}
	}
}

// BenchmarkFigure10 simulates all five protocol curves at paper scale
// (100,000 machines) and checks the overhead relationships.
func BenchmarkFigure10(b *testing.B) {
	p := simulator.DefaultParams()
	for i := 0; i < b.N; i++ {
		ns := simulator.NoStaging(p, scenario.PaperDeployment(scenario.ProblemsLast))
		bb := simulator.Balanced(p, scenario.PaperDeployment(scenario.ProblemsLast))
		bw := simulator.Balanced(p, scenario.PaperDeployment(scenario.ProblemsFirst))
		rs := simulator.RandomStaging(p, scenario.PaperDeployment(scenario.ProblemsUniform), 42)
		fl := simulator.FrontLoading(p, scenario.PaperDeployment(scenario.ProblemsLast))
		if ns.Overhead != 25000 || bb.Overhead != 3 || bw.Overhead != 3 || rs.Overhead != 3 || fl.Overhead != 5 {
			b.Fatal("fig10 overhead relationships broken")
		}
	}
}

// BenchmarkFigure11 simulates the imperfect-clustering curves.
func BenchmarkFigure11(b *testing.B) {
	p := simulator.DefaultParams()
	for i := 0; i < b.N; i++ {
		first := simulator.Balanced(p, scenario.WithMisplaced(scenario.PaperDeployment(scenario.ProblemsLast), true))
		last := simulator.Balanced(p, scenario.WithMisplaced(scenario.PaperDeployment(scenario.ProblemsLast), false))
		if first.Overhead != 4 || last.Overhead != 4 {
			b.Fatalf("fig11 overhead = %d/%d", first.Overhead, last.Overhead)
		}
	}
}

// --- Ablation benches (DESIGN.md §5) ---

// BenchmarkDiameterSweep sweeps the QT diameter across the Firefox
// experiment, the design parameter Figures 7 and 9 show is hard to pick.
func BenchmarkDiameterSweep(b *testing.B) {
	fps := scenario.FirefoxFingerprints(scenario.FirefoxMirageRegistry())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for d := 0; d <= 8; d++ {
			cluster.Run(cluster.Config{Diameter: d}, fps)
		}
	}
}

// BenchmarkParserAblation compares clustering cost with full parsers,
// Mirage-only parsers, and no parsers at all (pure Rabin fingerprints).
func BenchmarkParserAblation(b *testing.B) {
	b.Run("full", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cluster.Run(cluster.Config{Diameter: 3}, scenario.MySQLFingerprints(scenario.MySQLFullRegistry()))
		}
	})
	b.Run("mirage", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cluster.Run(cluster.Config{Diameter: 3}, scenario.MySQLFingerprints(scenario.MySQLMirageRegistry()))
		}
	})
	b.Run("none", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			cluster.Run(cluster.Config{Diameter: 3}, scenario.MySQLFingerprints(parser.NewRegistry()))
		}
	})
}

// BenchmarkRepresentativeCount varies representatives per cluster in the
// §4.3 simulation; more representatives marginally improve imperfect
// clustering at the cost of overhead.
func BenchmarkRepresentativeCount(b *testing.B) {
	p := simulator.DefaultParams()
	for _, reps := range []int{1, 2, 5} {
		b.Run(map[int]string{1: "reps1", 2: "reps2", 5: "reps5"}[reps], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				specs := scenario.PaperDeployment(scenario.ProblemsLast)
				for j := range specs {
					specs[j].Reps = reps
				}
				simulator.Balanced(p, specs)
			}
		})
	}
}

// BenchmarkRabinChunkSize measures content fingerprinting at several
// average chunk sizes. Small chunks would have caught the my.cnf
// difference Figure 7 misses, at higher item-count cost.
func BenchmarkRabinChunkSize(b *testing.B) {
	data := make([]byte, 64*1024)
	for i := range data {
		data[i] = byte(i*31 + i/255)
	}
	f := &machine.File{Path: "/blob", Type: machine.TypeData, Data: data}
	for _, avg := range []int{512, 4096, 16384} {
		name := map[int]string{512: "avg512", 4096: "avg4096", 16384: "avg16384"}[avg]
		b.Run(name, func(b *testing.B) {
			c := fingerprint.NewChunker(avg, avg/8, avg*4)
			b.SetBytes(int64(len(data)))
			for i := 0; i < b.N; i++ {
				parser.ContentFingerprint(c, f)
			}
		})
	}
}

// BenchmarkSimulatorScaling measures event-driven simulation cost as the
// cluster count grows at fixed fleet size.
func BenchmarkSimulatorScaling(b *testing.B) {
	p := simulator.DefaultParams()
	for _, n := range []int{20, 100, 500} {
		name := map[int]string{20: "clusters20", 100: "clusters100", 500: "clusters500"}[n]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				simulator.Balanced(p, scenario.Deployment(100_000, n, 15, scenario.ProblemsLast))
			}
		})
	}
}

// BenchmarkFingerprintMachine measures whole-machine fingerprinting, the
// per-machine cost of the clustering pipeline.
func BenchmarkFingerprintMachine(b *testing.B) {
	m := scenario.BuildMySQLMachine(scenario.MySQLTable2()[0])
	fp := parser.NewFingerprinter(scenario.MySQLFullRegistry())
	refs := scenario.MySQLResourceRefs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fp.Fingerprint(m, refs)
	}
}

// BenchmarkQTClustering measures the quadratic phase-2 cost on a synthetic
// 200-machine original cluster, the scaling concern §3.2.3 discusses.
func BenchmarkQTClustering(b *testing.B) {
	base := scenario.MySQLFingerprints(scenario.MySQLMirageRegistry())
	var fps []cluster.MachineFingerprint
	for i := 0; i < 200; i++ {
		fp := base[i%len(base)]
		fp.Name = fp.Name + "-" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26))
		fps = append(fps, fp)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cluster.Run(cluster.Config{Diameter: 3}, fps)
	}
}

// highDupFleet builds n machine fingerprints drawn from a small pool of
// distinct profiles (parsedGroups phase-1 groups × contentVariants content
// profiles each), the shape of a production fleet: thousands of machines,
// few genuinely distinct environments. Content variants use overlapping
// chunk windows, so pairwise Manhattan distances spread from 2 upward and
// the QT phase does real merging work. Deterministic (LCG-assigned).
func highDupFleet(n, parsedGroups, contentVariants int) []cluster.MachineFingerprint {
	var pool []cluster.MachineFingerprint
	for p := 0; p < parsedGroups; p++ {
		parsed := resource.NewSet(0)
		for k := 0; k <= p; k++ {
			parsed.Add(resource.Item{Key: fmt.Sprintf("pkg.p%d.v%d", p, k), Hash: uint64(p*31 + k), Kind: resource.Parsed})
		}
		for c := 0; c < contentVariants; c++ {
			content := resource.NewSet(0)
			for k := 0; k < 4; k++ {
				content.Add(resource.Item{Key: fmt.Sprintf("blob.chunk%d", c+k), Hash: uint64(c + k), Kind: resource.Content})
			}
			pool = append(pool, cluster.MachineFingerprint{ParsedDiff: parsed, ContentDiff: content, AppSet: "apps"})
		}
	}
	ms := make([]cluster.MachineFingerprint, n)
	seed := uint64(1)
	for i := range ms {
		seed = seed*6364136223846793005 + 1442695040888963407
		fp := pool[seed%uint64(len(pool))]
		fp.Name = fmt.Sprintf("m%06d", i)
		ms[i] = fp
	}
	return ms
}

// BenchmarkClusterHighDuplication measures the multiplicity-aware
// clustering front-end on fleets with realistic duplication against the
// pre-refactor naive QT path (Config.NaiveQT). The weighted phase 2
// scales with distinct profiles — 48 here — so the 10k fleet clusters in
// roughly the time of the 1k fleet, while the naive path is cubic in the
// members of the largest original cluster. The naive 10k reference is not
// run by default (its runtime is measured in hours, which is the point);
// set MIRAGE_BENCH_NAIVE_10K=1 to run it anyway.
func BenchmarkClusterHighDuplication(b *testing.B) {
	for _, n := range []int{1000, 10000} {
		fleet := highDupFleet(n, 4, 12)
		for _, mode := range []string{"weighted", "naive"} {
			b.Run(fmt.Sprintf("n%d/%s", n, mode), func(b *testing.B) {
				naive := mode == "naive"
				if naive && n > 1000 && os.Getenv("MIRAGE_BENCH_NAIVE_10K") == "" {
					b.Skip("naive QT at 10k machines is cubic in fleet size; set MIRAGE_BENCH_NAIVE_10K=1 to run")
				}
				want := len(cluster.Run(cluster.Config{Diameter: 3}, fleet))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					cs := cluster.Run(cluster.Config{Diameter: 3, NaiveQT: naive}, fleet)
					if len(cs) != want {
						b.Fatalf("clusters = %d, want %d", len(cs), want)
					}
				}
			})
		}
	}
}

// BenchmarkIdentifyResources measures the identification heuristic over
// the Firefox population (907 files, two traces), the heaviest Table 1 row.
func BenchmarkIdentifyResources(b *testing.B) {
	p := scenario.FirefoxTable1()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		scenario.EvaluateTable1(p)
	}
}

// BenchmarkStagingPlan measures the shared planner at paper scale: the
// cost of computing the wave schedule both executors run.
func BenchmarkStagingPlan(b *testing.B) {
	refs := simulator.Refs(scenario.PaperDeployment(scenario.ProblemsLast))
	for _, pol := range staging.Policies() {
		b.Run(pol.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if plan := staging.BuildPlan(pol, refs, 42); len(plan.Stages) == 0 {
					b.Fatal("empty plan")
				}
			}
		})
	}
}

// spinNode is a deploy.Node whose validation burns a fixed amount of CPU,
// standing in for the sandboxed replay of a real user machine.
type spinNode struct {
	name string
	work int
}

func (n *spinNode) Name() string { return n.name }

func (n *spinNode) TestUpgrade(_ context.Context, up *pkgmgr.Upgrade) (*report.Report, error) {
	h := uint64(14695981039346656037)
	for i := 0; i < n.work; i++ {
		h = (h ^ uint64(i)) * 1099511628211
	}
	_ = h
	return &report.Report{UpgradeID: up.ID, Machine: n.name, Success: true}, nil
}

func (n *spinNode) Integrate(context.Context, *pkgmgr.Upgrade) error { return nil }

// BenchmarkDeployWave compares serial and pooled per-wave node testing in
// the live controller — the speedup future PRs must not regress. One
// NoStaging deployment = one merged wave over the whole fleet.
func BenchmarkDeployWave(b *testing.B) {
	mkFleet := func() []*deploy.Cluster {
		var clusters []*deploy.Cluster
		for c := 0; c < 4; c++ {
			cl := &deploy.Cluster{ID: fmt.Sprintf("c%02d", c), Distance: c + 1}
			for n := 0; n < 16; n++ {
				node := &spinNode{name: fmt.Sprintf("c%02d-n%02d", c, n), work: 200_000}
				if n == 0 {
					cl.Representatives = append(cl.Representatives, node)
				} else {
					cl.Others = append(cl.Others, node)
				}
			}
			clusters = append(clusters, cl)
		}
		return clusters
	}
	up := &pkgmgr.Upgrade{ID: "bench-v1", Pkg: &pkgmgr.Package{Name: "app", Version: "1"}}
	for _, par := range []int{1, deploy.DefaultParallelism, 16} {
		b.Run(fmt.Sprintf("workers%d", par), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				ctl := deploy.NewController(report.New(), nil)
				ctl.Parallelism = par
				out, err := ctl.Deploy(context.Background(), deploy.PolicyNoStaging, up, mkFleet())
				if err != nil || out.Integrated() != 64 {
					b.Fatalf("integrated=%d err=%v", out.Integrated(), err)
				}
			}
		})
	}
}

// BenchmarkSimulatorAdaptive regenerates the headline property of the new
// policy: Balanced's overhead with a strictly shorter makespan.
func BenchmarkSimulatorAdaptive(b *testing.B) {
	p := simulator.DefaultParams()
	for i := 0; i < b.N; i++ {
		ada := simulator.Adaptive(p, scenario.PaperDeployment(scenario.ProblemsLast))
		bal := simulator.Balanced(p, scenario.PaperDeployment(scenario.ProblemsLast))
		if ada.Overhead != bal.Overhead || ada.Makespan >= bal.Makespan {
			b.Fatalf("adaptive overhead=%d makespan=%v vs balanced %d/%v",
				ada.Overhead, ada.Makespan, bal.Overhead, bal.Makespan)
		}
	}
}

// --- Distribution layer (content-addressed chunked transfer) ---

// distribPayload returns deterministic pseudo-random bytes. Varied content
// matters: content-defined chunking of repetitive data degenerates into
// max-size chunks whose boundaries a single edit would shift globally.
func distribPayload(seed byte, n int) []byte {
	data := make([]byte, n)
	x := uint32(seed) + 17
	for i := range data {
		x = x*1664525 + 1013904223
		data[i] = byte(x >> 16)
	}
	return data
}

const (
	distribMachines = 50
	distribClusters = 5
	distribFileSize = 512 * 1024
)

// distribUpgrade is version N+1 of the fleet's installed package: the big
// binary with a small edit (a true CDC delta from what agents hold) plus a
// fresh small library.
func distribUpgrade() *pkgmgr.Upgrade {
	v2 := distribPayload(1, distribFileSize)
	copy(v2[distribFileSize/2:], []byte("the 5.0.22 release changes a handful of bytes in the middle"))
	return &pkgmgr.Upgrade{
		ID: "mysql-dist-5.0.22",
		Pkg: &pkgmgr.Package{Name: "mysql", Version: "5.0.22", Files: []*machine.File{
			{Path: apps.MySQLExec, Type: machine.TypeExecutable, Data: v2, Version: "5.0.22"},
			{Path: apps.LibMySQLPath, Type: machine.TypeSharedLib, Data: distribPayload(2, 16*1024), Version: "5.0"},
		}},
		Replaces: "4.1.22",
	}
}

// runDistributionDeployment spins a vendor server and a 50-agent fleet on
// loopback TCP, stages the upgrade across 5 clusters under Balanced, and
// returns the deployment's wire-byte delta.
func runDistributionDeployment(b *testing.B, inline bool) deploy.TransferStats {
	b.Helper()
	s, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	s.InlinePayloads = inline

	v1 := distribPayload(1, distribFileSize)
	for i := 0; i < distribMachines; i++ {
		m := machine.New(fmt.Sprintf("dist-%02d", i))
		m.SetEnv("HOME", "/home/user")
		m.WriteFile(&machine.File{Path: apps.MySQLExec, Type: machine.TypeExecutable, Data: v1, Version: "4.1.22"})
		m.InstallPackage(machine.PackageRef{Name: "mysql", Version: "4.1.22"}, []string{apps.MySQLExec})
		go transport.NewAgent(m).Run(s.Addr())
	}
	if got := s.WaitForAgents(distribMachines, 10*time.Second); got != distribMachines {
		b.Fatalf("only %d/%d agents registered", got, distribMachines)
	}

	names := s.Agents()
	var clusters []*deploy.Cluster
	perCluster := distribMachines / distribClusters
	for c := 0; c < distribClusters; c++ {
		cl := &deploy.Cluster{ID: deploy.ClusterName(c), Distance: c + 1}
		for n, name := range names[c*perCluster : (c+1)*perCluster] {
			if n == 0 {
				cl.Representatives = append(cl.Representatives, s.Node(name))
			} else {
				cl.Others = append(cl.Others, s.Node(name))
			}
		}
		clusters = append(clusters, cl)
	}

	ctl := deploy.NewController(report.New(), nil)
	ctl.Transfer = s.TransferSnapshot
	out, err := ctl.Deploy(context.Background(), deploy.PolicyBalanced, distribUpgrade(), clusters)
	if err != nil {
		b.Fatal(err)
	}
	if out.Integrated() != distribMachines {
		b.Fatalf("integrated = %d/%d", out.Integrated(), distribMachines)
	}
	return out.Transfer
}

// BenchmarkDistribution measures the bytes-on-wire and wall clock of a
// 50-machine staged deployment under the legacy inline transport versus
// content-addressed chunked distribution, and re-asserts the headline
// property: chunked distribution moves at least 10x fewer bytes, because
// agents seed their chunk caches from the installed version and fetch
// only the CDC delta. Set MIRAGE_BENCH_DISTRIB_JSON to a path to emit a
// machine-readable summary (the CI perf-trajectory artifact).
func BenchmarkDistribution(b *testing.B) {
	type modeResult struct {
		WireBytes  int64   `json:"wire_bytes"`
		ChunkBytes int64   `json:"chunk_bytes"`
		Frames     int64   `json:"frames"`
		NsPerOp    float64 `json:"ns_per_op"`
	}
	results := make(map[string]*modeResult)
	for _, mode := range []string{"inline", "chunked"} {
		mode := mode
		b.Run(mode, func(b *testing.B) {
			var last deploy.TransferStats
			for i := 0; i < b.N; i++ {
				last = runDistributionDeployment(b, mode == "inline")
			}
			b.ReportMetric(float64(last.BytesSent), "wirebytes/op")
			b.ReportMetric(float64(last.ChunkBytes), "chunkbytes/op")
			results[mode] = &modeResult{
				WireBytes:  last.BytesSent,
				ChunkBytes: last.ChunkBytes,
				Frames:     last.FramesSent,
				NsPerOp:    float64(b.Elapsed().Nanoseconds()) / float64(b.N),
			}
		})
	}
	inline, chunked := results["inline"], results["chunked"]
	if inline == nil || chunked == nil || chunked.WireBytes == 0 {
		b.Fatal("benchmark sub-runs missing")
	}
	reduction := float64(inline.WireBytes) / float64(chunked.WireBytes)
	if reduction < 10 {
		b.Fatalf("chunked distribution saves only %.1fx bytes-on-wire (inline %d, chunked %d), want >= 10x",
			reduction, inline.WireBytes, chunked.WireBytes)
	}
	b.Logf("bytes-on-wire: inline %d, chunked %d (%.1fx reduction)",
		inline.WireBytes, chunked.WireBytes, reduction)
	summary := []benchjson.Result{
		{Name: "BenchmarkDistribution", N: distribMachines, Metrics: map[string]float64{
			"clusters": distribClusters, "payload_bytes": distribFileSize + 16*1024,
			"reduction": reduction,
		}},
	}
	for _, mode := range []string{"inline", "chunked"} {
		r := results[mode]
		summary = append(summary, benchjson.Result{
			Name: "BenchmarkDistribution/" + mode, N: distribMachines,
			Labels: map[string]string{"mode": mode},
			Metrics: map[string]float64{
				"wire_bytes": float64(r.WireBytes), "chunk_bytes": float64(r.ChunkBytes),
				"frames": float64(r.Frames), "ns_per_op": r.NsPerOp,
			},
		})
	}
	if _, err := benchjson.WriteEnv("MIRAGE_BENCH_DISTRIB_JSON", summary); err != nil {
		b.Fatal(err)
	}
}

// --- Peer swarming (vendor egress vs fleet size) ---

const (
	swarmClusters = 5
	swarmFileSize = 512 * 1024
)

// swarmUpgrade carries a payload unrelated to anything the fleet has
// installed, so every chunk misses every seeded cache — the worst case
// for vendor egress and exactly what the peer tier exists to absorb.
func swarmUpgrade() *pkgmgr.Upgrade {
	return &pkgmgr.Upgrade{
		ID: "mysql-swarm-5.0.22",
		Pkg: &pkgmgr.Package{Name: "mysql", Version: "5.0.22", Files: []*machine.File{
			{Path: apps.MySQLExec, Type: machine.TypeExecutable, Data: distribPayload(7, swarmFileSize), Version: "5.0.22"},
			{Path: apps.LibMySQLPath, Type: machine.TypeSharedLib, Data: distribPayload(8, 16*1024), Version: "5.0"},
		}},
		Replaces: "4.1.22",
	}
}

// runSwarmDeployment stages swarmUpgrade over a fleet of peer-serving
// agents on loopback TCP, with peer hinting on or off, and returns the
// deployment's transfer delta. Every agent runs a peer chunk server and
// gated waves are marked eligible, so with swarming on the vendor seeds
// roughly one payload copy per cluster and the rest moves peer-to-peer.
func runSwarmDeployment(b *testing.B, fleet int, swarm bool) deploy.TransferStats {
	b.Helper()
	s, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	s.DisablePeers = !swarm

	agents := make([]*transport.Agent, fleet)
	for i := 0; i < fleet; i++ {
		m := machine.New(fmt.Sprintf("swarm-%03d", i))
		m.SetEnv("HOME", "/home/user")
		m.WriteFile(&machine.File{Path: apps.MySQLExec, Type: machine.TypeExecutable,
			Data: distribPayload(1, 64*1024), Version: "4.1.22"})
		m.InstallPackage(machine.PackageRef{Name: "mysql", Version: "4.1.22"}, []string{apps.MySQLExec})
		a := transport.NewAgent(m)
		if _, err := a.ServePeers("127.0.0.1:0"); err != nil {
			b.Fatal(err)
		}
		agents[i] = a
		go a.Run(s.Addr())
	}
	defer func() {
		for _, a := range agents {
			a.ClosePeers()
		}
	}()
	if got := s.WaitForAgents(fleet, 10*time.Second); got != fleet {
		b.Fatalf("only %d/%d agents registered", got, fleet)
	}

	names := s.Agents()
	perCluster := fleet / swarmClusters
	var clusters []*deploy.Cluster
	for c := 0; c < swarmClusters; c++ {
		cl := &deploy.Cluster{ID: deploy.ClusterName(c), Distance: c + 1}
		for n, name := range names[c*perCluster : (c+1)*perCluster] {
			if n == 0 {
				cl.Representatives = append(cl.Representatives, s.Node(name))
			} else {
				cl.Others = append(cl.Others, s.Node(name))
			}
		}
		clusters = append(clusters, cl)
	}

	ctl := deploy.NewController(report.New(), nil)
	ctl.Transfer = s.TransferSnapshot
	if swarm {
		ctl.GatedMembers = s.MarkPeerEligible
	}
	out, err := ctl.Deploy(context.Background(), deploy.PolicyBalanced, swarmUpgrade(), clusters)
	if err != nil {
		b.Fatal(err)
	}
	if out.Integrated() != fleet {
		b.Fatalf("integrated = %d/%d", out.Integrated(), fleet)
	}
	return out.Transfer
}

// BenchmarkSwarm measures vendor chunk egress against fleet size with the
// peer tier on and off, and re-asserts the tier's headline property:
// with swarming, doubling the fleet grows vendor egress by less than
// 1.5x (the vendor seeds ~one copy per cluster and gated waves serve the
// rest), while without it egress is O(fleet). Set MIRAGE_BENCH_SWARM_JSON
// to a path to emit the machine-readable summary (the CI perf artifact).
func BenchmarkSwarm(b *testing.B) {
	fleets := []int{25, 50, 100}
	type sizeResult struct {
		VendorChunkBytes int64 `json:"vendor_chunk_bytes"`
		VendorBytes      int64 `json:"vendor_bytes"`
		PeerBytes        int64 `json:"peer_bytes"`
		PeerHits         int64 `json:"peer_hits"`
		VendorFallbacks  int64 `json:"vendor_fallbacks"`
	}
	results := map[string]map[int]*sizeResult{"swarm": {}, "noswarm": {}}
	for _, mode := range []string{"swarm", "noswarm"} {
		for _, fleet := range fleets {
			mode, fleet := mode, fleet
			b.Run(fmt.Sprintf("%s/agents%d", mode, fleet), func(b *testing.B) {
				var last deploy.TransferStats
				for i := 0; i < b.N; i++ {
					last = runSwarmDeployment(b, fleet, mode == "swarm")
				}
				b.ReportMetric(float64(last.ChunkBytes), "vendorchunkbytes/op")
				b.ReportMetric(float64(last.PeerBytes), "peerbytes/op")
				results[mode][fleet] = &sizeResult{
					VendorChunkBytes: last.ChunkBytes,
					VendorBytes:      last.BytesSent,
					PeerBytes:        last.PeerBytes,
					PeerHits:         last.PeerHits,
					VendorFallbacks:  last.VendorFallbacks,
				}
			})
		}
	}
	for _, fleet := range fleets {
		if results["swarm"][fleet] == nil || results["noswarm"][fleet] == nil {
			b.Fatal("benchmark sub-runs missing")
		}
	}
	// Swarming on: vendor egress must be sublinear — 2x fleet, < 1.5x
	// chunk bytes. Off: O(fleet) — 2x fleet, > 1.7x chunk bytes (the
	// control proving the swarm, not some cache artifact, flattens it).
	for i := 1; i < len(fleets); i++ {
		small, big := fleets[i-1], fleets[i]
		on := float64(results["swarm"][big].VendorChunkBytes) / float64(results["swarm"][small].VendorChunkBytes)
		off := float64(results["noswarm"][big].VendorChunkBytes) / float64(results["noswarm"][small].VendorChunkBytes)
		if on >= 1.5 {
			b.Fatalf("swarm vendor egress grew %.2fx from %d to %d agents (%d -> %d bytes), want < 1.5x",
				on, small, big, results["swarm"][small].VendorChunkBytes, results["swarm"][big].VendorChunkBytes)
		}
		if off <= 1.7 {
			b.Fatalf("no-swarm vendor egress grew only %.2fx from %d to %d agents — control broken",
				off, small, big)
		}
		b.Logf("%d -> %d agents: vendor egress x%.2f with swarm, x%.2f without", small, big, on, off)
	}
	// The flat egress must be real offload, not caching: the peer tier
	// carried at least half the fleet's payload copies at every size.
	for _, fleet := range fleets {
		r := results["swarm"][fleet]
		if r.PeerBytes < int64(fleet/2)*swarmFileSize {
			b.Fatalf("swarm at %d agents served %d peer bytes, want >= %d",
				fleet, r.PeerBytes, int64(fleet/2)*swarmFileSize)
		}
	}
	summary := []benchjson.Result{
		{Name: "BenchmarkSwarm", Metrics: map[string]float64{
			"clusters": swarmClusters, "payload_bytes": swarmFileSize + 16*1024,
		}},
	}
	for _, mode := range []string{"swarm", "noswarm"} {
		for _, fleet := range fleets {
			r := results[mode][fleet]
			summary = append(summary, benchjson.Result{
				Name: fmt.Sprintf("BenchmarkSwarm/%s/agents%d", mode, fleet), N: fleet,
				Labels: map[string]string{"mode": mode},
				Metrics: map[string]float64{
					"vendor_chunk_bytes": float64(r.VendorChunkBytes),
					"vendor_bytes":       float64(r.VendorBytes),
					"peer_bytes":         float64(r.PeerBytes),
					"peer_hits":          float64(r.PeerHits),
					"vendor_fallbacks":   float64(r.VendorFallbacks),
				},
			})
		}
	}
	if _, err := benchjson.WriteEnv("MIRAGE_BENCH_SWARM_JSON", summary); err != nil {
		b.Fatal(err)
	}
}

// --- Rollout engine (durability + agent churn) ---

const (
	churnMachines = 36
	churnClusters = 4
	churnKilled   = 2 // permanently dead: quarantined by the rollout
	churnChurned  = 8 // killed mid-rollout, auto-revived by reconnect loops
)

// churnUpgrade is a small upgrade; the benchmark measures the churn
// machinery, not payload transfer.
func churnUpgrade() *pkgmgr.Upgrade {
	return &pkgmgr.Upgrade{
		ID: "mysql-churn-5.0.22",
		Pkg: &pkgmgr.Package{Name: "mysql", Version: "5.0.22", Files: []*machine.File{
			{Path: apps.MySQLExec, Type: machine.TypeExecutable, Data: []byte("mysqld 5.0.22"), Version: "5.0.22"},
		}},
		Replaces: "4.1.22",
	}
}

// runChurnRollout spins a vendor and a 36-agent fleet on loopback TCP,
// stages a journaled Balanced rollout across 4 clusters while a fraction
// of the fleet is killed (reconnecting agents redial and re-register with
// identity and chunk cache intact; two agents stay dead), and asserts the
// deployment completes with every reachable machine integrated and the
// dead ones quarantined.
func runChurnRollout(b *testing.B, journalPath string) *deploy.Outcome {
	b.Helper()
	s, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	stop := make(chan struct{})
	defer close(stop)

	names := make([]string, churnMachines)
	for i := range names {
		names[i] = fmt.Sprintf("churn-%02d", i)
	}
	// The permanently dead live in the farthest cluster (deployed last),
	// so they are certain to die before their wave reaches them.
	permDead := names[churnMachines-churnKilled:]
	for i, name := range names {
		m := machine.New(name)
		m.SetEnv("HOME", "/home/user")
		m.WriteFile(&machine.File{Path: apps.MySQLExec, Type: machine.TypeExecutable,
			Data: []byte("mysqld 4.1.22"), Version: "4.1.22"})
		m.InstallPackage(machine.PackageRef{Name: "mysql", Version: "4.1.22"}, []string{apps.MySQLExec})
		a := transport.NewAgent(m)
		if i >= churnMachines-churnKilled {
			go a.Run(s.Addr()) // no reconnect loop: dead stays dead
		} else {
			go a.RunWithReconnect(s.Addr(), transport.ReconnectConfig{
				MaxAttempts: 1000, BaseDelay: 2 * time.Millisecond,
				MaxDelay: 20 * time.Millisecond, Stop: stop,
			})
		}
	}
	if got := s.WaitForAgents(churnMachines, 10*time.Second); got != churnMachines {
		b.Fatalf("only %d/%d agents registered", got, churnMachines)
	}

	perCluster := churnMachines / churnClusters
	var clusters []*deploy.Cluster
	for c := 0; c < churnClusters; c++ {
		cl := &deploy.Cluster{ID: deploy.ClusterName(c), Distance: c + 1}
		for n, name := range names[c*perCluster : (c+1)*perCluster] {
			if n == 0 {
				cl.Representatives = append(cl.Representatives, s.Node(name))
			} else {
				cl.Others = append(cl.Others, s.Node(name))
			}
		}
		clusters = append(clusters, cl)
	}

	// Five retries at a 10ms doubling backoff give churned agents a ~300ms
	// window to redial (their loops come back in ~5-20ms) while bounding
	// what each permanently dead member costs its wave.
	ctl := deploy.NewController(report.New(), nil)
	ctl.TransientRetries = 5
	ctl.RetryBackoff = 10 * time.Millisecond
	ctl.Transfer = s.TransferSnapshot

	// Chaos: the permanently dead die as the rollout starts; churn victims
	// spread across the fleet are dropped on a ticker while waves run and
	// revive themselves through their reconnect loops.
	for _, name := range permDead {
		s.DropAgent(name)
	}
	var victims []string
	for i := 1; i < churnMachines-churnKilled && len(victims) < churnChurned; i += 4 {
		victims = append(victims, names[i])
	}
	chaosDone := make(chan struct{})
	go func() {
		defer close(chaosDone)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for _, victim := range victims {
			select {
			case <-tick.C:
				s.DropAgent(victim)
			case <-stop:
				return
			}
		}
	}()

	eng := &rollout.Engine{Controller: ctl, Path: journalPath}
	out, err := eng.Deploy(context.Background(), deploy.PolicyBalanced, churnUpgrade(), clusters)
	if err != nil {
		b.Fatal(err)
	}
	<-chaosDone

	want := churnMachines - churnKilled
	if out.Integrated() != want {
		b.Fatalf("integrated = %d/%d (quarantined %v)", out.Integrated(), want, out.Quarantined)
	}
	if len(out.Quarantined) != churnKilled ||
		out.Quarantined[0] != permDead[0] || out.Quarantined[1] != permDead[1] {
		b.Fatalf("quarantined = %v, want %v", out.Quarantined, permDead)
	}
	return out
}

// BenchmarkRolloutChurn measures a journaled staged rollout under agent
// churn over real TCP — the durability headline: a fleet where agents
// disconnect constantly still converges, with every reachable machine
// integrated and only the permanently dead quarantined. Set
// MIRAGE_BENCH_ROLLOUT_JSON to a path to emit a machine-readable summary
// (the CI perf-trajectory artifact).
func BenchmarkRolloutChurn(b *testing.B) {
	dir := b.TempDir()
	var last *deploy.Outcome
	for i := 0; i < b.N; i++ {
		last = runChurnRollout(b, filepath.Join(dir, fmt.Sprintf("journal-%d", i)))
	}
	b.ReportMetric(float64(last.Integrated()), "integrated/op")
	b.ReportMetric(float64(len(last.Quarantined)), "quarantined/op")
	if _, err := benchjson.WriteEnv("MIRAGE_BENCH_ROLLOUT_JSON", []benchjson.Result{{
		Name: "BenchmarkRolloutChurn", N: churnMachines,
		Metrics: map[string]float64{
			"clusters":    churnClusters,
			"churned":     churnChurned,
			"killed":      churnKilled,
			"integrated":  float64(last.Integrated()),
			"quarantined": float64(len(last.Quarantined)),
			"wire_bytes":  float64(last.Transfer.BytesSent),
			"frames":      float64(last.Transfer.FramesSent),
			"ns_per_op":   float64(b.Elapsed().Nanoseconds()) / float64(b.N),
		},
	}}); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSimulatorEvents reports the event throughput of the
// discrete-event engine on the paper scenario.
func BenchmarkSimulatorEvents(b *testing.B) {
	p := simulator.DefaultParams()
	events := 0
	for i := 0; i < b.N; i++ {
		res := simulator.FrontLoading(p, scenario.PaperDeployment(scenario.ProblemsLast))
		events += res.Events
	}
	b.ReportMetric(float64(events)/float64(b.N), "events/run")
}

// --- Control plane (concurrent rollout orchestration) ---

const (
	orchMachines = 40 // one shared fleet of agents over loopback TCP
	orchRollouts = 4  // concurrent journaled rollouts over that fleet
	orchClusters = 4  // clusters per rollout
)

// BenchmarkOrchestratorConcurrent measures the control plane's headline:
// four journaled rollouts running concurrently over one shared 40-agent
// fleet — each with its own journal, event stream and status view — all
// converging. Upgrade IDs differ per rollout, so the journals must never
// cross-contaminate; the assertion fails the benchmark (and CI) if any
// rollout falls short of full integration. Set MIRAGE_BENCH_ORCH_JSON to
// a path to emit the machine-readable summary (the CI perf artifact).
func BenchmarkOrchestratorConcurrent(b *testing.B) {
	dir := b.TempDir()
	var last []orchestrator.Status
	var lastOut []*deploy.Outcome
	for i := 0; i < b.N; i++ {
		last, lastOut = runConcurrentRollouts(b, filepath.Join(dir, fmt.Sprintf("iter-%d", i)))
	}
	integrated := 0
	for _, out := range lastOut {
		integrated += out.Integrated()
	}
	b.ReportMetric(float64(orchRollouts), "rollouts/op")
	b.ReportMetric(float64(integrated), "integrated/op")
	states := make(map[string]string, len(last))
	events := 0
	for _, st := range last {
		states[st.ID] = string(st.State)
		events += st.Events
	}
	if _, err := benchjson.WriteEnv("MIRAGE_BENCH_ORCH_JSON", []benchjson.Result{{
		Name: "BenchmarkOrchestratorConcurrent", N: orchMachines,
		Labels: states,
		Metrics: map[string]float64{
			"rollouts":   orchRollouts,
			"clusters":   orchClusters,
			"integrated": float64(integrated),
			"events":     float64(events),
			"ns_per_op":  float64(b.Elapsed().Nanoseconds()) / float64(b.N),
		},
	}}); err != nil {
		b.Fatal(err)
	}
}

// runConcurrentRollouts spins one vendor server plus a 40-agent fleet and
// drives 4 concurrent journaled rollouts over the same agents through one
// orchestrator. Agents serialize work on their control channel, so the
// rollouts contend exactly like concurrent operators would.
func runConcurrentRollouts(b *testing.B, dir string) ([]orchestrator.Status, []*deploy.Outcome) {
	b.Helper()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		b.Fatal(err)
	}
	s, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()

	names := make([]string, orchMachines)
	for i := range names {
		names[i] = fmt.Sprintf("orch-%02d", i)
		m := machine.New(names[i])
		m.SetEnv("HOME", "/home/user")
		m.WriteFile(&machine.File{Path: apps.MySQLExec, Type: machine.TypeExecutable,
			Data: []byte("mysqld 4.1.22"), Version: "4.1.22"})
		m.InstallPackage(machine.PackageRef{Name: "mysql", Version: "4.1.22"}, []string{apps.MySQLExec})
		go transport.NewAgent(m).Run(s.Addr())
	}
	if got := s.WaitForAgents(orchMachines, 10*time.Second); got != orchMachines {
		b.Fatalf("only %d/%d agents registered", got, orchMachines)
	}

	perCluster := orchMachines / orchClusters
	mkClusters := func() []*deploy.Cluster {
		var clusters []*deploy.Cluster
		for c := 0; c < orchClusters; c++ {
			cl := &deploy.Cluster{ID: deploy.ClusterName(c), Distance: c + 1}
			for n, name := range names[c*perCluster : (c+1)*perCluster] {
				if n == 0 {
					cl.Representatives = append(cl.Representatives, s.Node(name))
				} else {
					cl.Others = append(cl.Others, s.Node(name))
				}
			}
			clusters = append(clusters, cl)
		}
		return clusters
	}

	orch := orchestrator.New(dir)
	handles := make([]*orchestrator.Handle, orchRollouts)
	for r := 0; r < orchRollouts; r++ {
		up := &pkgmgr.Upgrade{
			ID: fmt.Sprintf("mysql-orch-5.0.%d", r),
			Pkg: &pkgmgr.Package{Name: "mysql", Version: "5.0.22", Files: []*machine.File{
				{Path: apps.MySQLExec, Type: machine.TypeExecutable, Data: []byte("mysqld 5.0.22"), Version: "5.0.22"},
			}},
			Replaces: "4.1.22",
		}
		h, err := orch.Start(context.Background(), orchestrator.Spec{
			Policy:   deploy.PolicyBalanced,
			Upgrade:  up,
			Clusters: mkClusters(),
			Configure: func(ctl *deploy.Controller) {
				ctl.Transfer = s.TransferSnapshot
			},
		})
		if err != nil {
			b.Fatal(err)
		}
		handles[r] = h
	}

	outs := make([]*deploy.Outcome, orchRollouts)
	sts := make([]orchestrator.Status, orchRollouts)
	for r, h := range handles {
		out, err := h.Wait(context.Background())
		if err != nil {
			b.Fatalf("rollout %s: %v", h.ID(), err)
		}
		if out.Integrated() != orchMachines {
			b.Fatalf("rollout %s integrated %d/%d", h.ID(), out.Integrated(), orchMachines)
		}
		outs[r] = out
		sts[r] = h.Status()
		if sts[r].State != orchestrator.StateSucceeded {
			b.Fatalf("rollout %s state %s", h.ID(), sts[r].State)
		}
		// Journal hygiene: each rollout's journal names only its upgrade.
		recs, err := rollout.Load(sts[r].Journal)
		if err != nil {
			b.Fatal(err)
		}
		want := fmt.Sprintf("mysql-orch-5.0.%d", r)
		for _, rec := range recs {
			if rec.UpgradeID != "" && rec.UpgradeID != want {
				b.Fatalf("rollout %s journal holds foreign record %+v", h.ID(), rec)
			}
		}
	}
	return sts, outs
}

// --- 100k-agent control plane ---

// scaleUpgrade is the sim fleet's payload: one executable big enough to
// chunk but small enough that transfer cost never dominates — the scale
// bench measures the control plane (registration, scheduling, journal,
// budget), not the distribution tier, which has its own benchmarks.
func scaleUpgrade() *pkgmgr.Upgrade {
	return &pkgmgr.Upgrade{
		ID: "scaled-app-2.0",
		Pkg: &pkgmgr.Package{Name: "scaled-app", Version: "2.0", Files: []*machine.File{
			{Path: "/usr/bin/scaled-app", Type: machine.TypeExecutable,
				Data: distribPayload(0x5c, 64<<10), Version: "2.0"},
		}},
		Replaces: "1.0",
	}
}

// registryThroughput measures mixed register/lookup throughput (ops/sec)
// on a registry pre-populated with every name, across the given worker
// count. One op in 16 is a registration (the steady-state fleet churns
// slowly); the rest are the lookups every RPC performs.
func registryThroughput(names []string, shards, workers, opsPerWorker int) float64 {
	r := transport.NewRegistry[int](shards)
	for i, name := range names {
		r.Put(name, i)
	}
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			idx := w * 7919 // stride the shards differently per worker
			for i := 0; i < opsPerWorker; i++ {
				name := names[idx%len(names)]
				idx += 7919
				if i%16 == 0 {
					r.Put(name, i)
				} else {
					r.Get(name)
				}
			}
		}(w)
	}
	wg.Wait()
	return float64(workers*opsPerWorker) / time.Since(start).Seconds()
}

// fdBudgetAllows reports whether the process may hold `need` file
// descriptors, raising the soft limit toward the hard limit first. The
// scale tiers use it to pick their transport: real TCP when the
// descriptor budget covers two sockets per agent, in-process pipes
// (Server.ServeConn — identical protocol, zero descriptors) when not.
func fdBudgetAllows(need uint64) bool {
	var rl syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &rl); err != nil {
		return false
	}
	if rl.Cur < rl.Max {
		raised := rl
		raised.Cur = rl.Max
		if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &raised); err == nil {
			rl = raised
		}
	}
	return rl.Cur >= need
}

// scaleTier is one fleet-size measurement of the scale benchmark.
type scaleTier struct {
	Members             int     `json:"members"`
	Mode                string  `json:"mode"` // "tcp" or "pipe"
	RegisterSecs        float64 `json:"register_secs"`
	RegistrationsPerSec float64 `json:"registrations_per_sec"`
	RolloutSecs         float64 `json:"rollout_secs"`
	Integrated          int     `json:"integrated"`
	Tested              int64   `json:"tested"`
	Shards              int     `json:"shards"`
}

// runScaleRollout registers an n-agent sim fleet against a fresh vendor
// and drives one journaled Balanced rollout across ~1000-member clusters
// under a 256-slot worker budget, asserting full integration. With reg
// non-nil the full telemetry stack is wired — transport RPC histograms,
// member spans under a live trace, journal fsync metrics — so the
// overhead tier measures exactly what an instrumented control plane
// pays.
func runScaleRollout(b *testing.B, dir string, n, iter int, reg *telemetry.Registry) scaleTier {
	b.Helper()
	mode := "tcp"
	if !fdBudgetAllows(uint64(2*n + 512)) {
		mode = "pipe"
	}
	s, err := transport.ListenWith("127.0.0.1:0", transport.ListenOpts{MaxPending: 4096})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	s.Telemetry = reg

	opts := transport.SimOptions{Prefix: fmt.Sprintf("scale%dk", n/1000)}
	if mode == "pipe" {
		opts.Server = s
	} else {
		opts.Addr = s.Addr()
	}
	t0 := time.Now()
	fleet, err := transport.StartSimFleet(n, opts)
	if err != nil {
		b.Fatal(err)
	}
	defer fleet.Close()
	if got := s.WaitForAgents(n, 5*time.Minute); got != n {
		b.Fatalf("only %d/%d sim agents registered", got, n)
	}
	regSecs := time.Since(t0).Seconds()

	names := fleet.Names()
	per := 1000
	if n < per {
		per = n
	}
	var clusters []*deploy.Cluster
	for c := 0; c*per < n; c++ {
		end := (c + 1) * per
		if end > n {
			end = n
		}
		cl := &deploy.Cluster{ID: deploy.ClusterName(c), Distance: c + 1}
		for i, name := range names[c*per : end] {
			if i == 0 {
				cl.Representatives = append(cl.Representatives, s.Node(name))
			} else {
				cl.Others = append(cl.Others, s.Node(name))
			}
		}
		clusters = append(clusters, cl)
	}

	ctl := deploy.NewController(report.New(), nil)
	ctl.Parallelism = 64
	ctl.Budget = deploy.NewBudget(256)
	ctl.Transfer = s.TransferSnapshot
	ctl.Telemetry = reg
	eng := &rollout.Engine{Controller: ctl, Telemetry: reg,
		Path: filepath.Join(dir, fmt.Sprintf("scale-%d-%d.journal", n, iter))}
	ctx := context.Background()
	if reg != nil {
		tr := (&telemetry.Tracer{}).Start(fmt.Sprintf("scale-%d", n))
		root := tr.Begin(0, "rollout", fmt.Sprintf("scale %d", n), "")
		defer tr.End(root, nil)
		ctx = telemetry.NewContext(ctx, tr, root)
	}
	t1 := time.Now()
	out, err := eng.Deploy(ctx, deploy.PolicyBalanced, scaleUpgrade(), clusters)
	if err != nil {
		b.Fatal(err)
	}
	rolloutSecs := time.Since(t1).Seconds()
	if out.Integrated() != n {
		b.Fatalf("scale tier %d: integrated %d/%d (quarantined %v)", n, out.Integrated(), n, out.Quarantined)
	}
	return scaleTier{
		Members: n, Mode: mode,
		RegisterSecs: regSecs, RegistrationsPerSec: float64(n) / regSecs,
		RolloutSecs: rolloutSecs, Integrated: out.Integrated(),
		Tested: fleet.Tested(), Shards: len(s.ShardSizes()),
	}
}

// BenchmarkScale measures the control plane at fleet sizes the paper's
// testbed could only simulate: registry throughput as shard count grows,
// then full journaled rollouts over sim-agent fleets (10k always; 50k and
// 100k behind MIRAGE_BENCH_SCALE_100K=1). When real parallelism is
// available (GOMAXPROCS >= 8) the sharded registry must beat a single
// shard by at least 4x on the 100k-name working set; on smaller hosts the
// ratio is recorded but not asserted, since shards only relieve lock
// contention that a serial scheduler never creates. Set
// MIRAGE_BENCH_SCALE_JSON to a path to emit the machine-readable summary
// (the CI perf-trajectory artifact).
func BenchmarkScale(b *testing.B) {
	names := make([]string, 100_000)
	for i := range names {
		names[i] = fmt.Sprintf("agent-%06d", i)
	}
	workers := runtime.GOMAXPROCS(0) * 2
	if workers < 8 {
		workers = 8
	}
	const opsPerWorker = 100_000
	shardCounts := []int{1, 4, 16}
	if d := transport.DefaultShards(); d > 16 {
		shardCounts = append(shardCounts, d)
	}
	sizes := []int{10_000}
	if os.Getenv("MIRAGE_BENCH_SCALE_100K") != "" {
		sizes = append(sizes, 50_000, 100_000)
	}

	dir := b.TempDir()
	throughput := make([]float64, len(shardCounts))
	var tiers []scaleTier
	for i := 0; i < b.N; i++ {
		for j, sc := range shardCounts {
			throughput[j] = registryThroughput(names, sc, workers, opsPerWorker)
		}
		tiers = tiers[:0]
		for _, n := range sizes {
			tiers = append(tiers, runScaleRollout(b, dir, n, i, nil))
		}
	}
	ratio := throughput[len(throughput)-1] / throughput[0]
	last := tiers[len(tiers)-1]
	b.ReportMetric(ratio, "shard-speedup")
	b.ReportMetric(last.RegistrationsPerSec, "reg/s")
	b.ReportMetric(last.RolloutSecs, "rollout-s")
	if runtime.GOMAXPROCS(0) >= 8 && ratio < 4 {
		b.Fatalf("sharded registry (%d shards) is only %.2fx a single shard over %d names at GOMAXPROCS=%d; want >= 4x",
			shardCounts[len(shardCounts)-1], ratio, len(names), runtime.GOMAXPROCS(0))
	}

	// Telemetry overhead tier: rerun the 10k rollout with the full
	// telemetry stack wired (RPC latency/byte histograms on every agent
	// call, member spans recorded into a live trace, journal fsync
	// metrics) and hold it to 5% of the plain run's wall clock — the
	// half-second floor keeps sub-second runs from tripping on timer
	// noise. Telemetry that costs more than that is not allocation-free
	// enough to leave on in production.
	plain := tiers[0]
	telemTier := runScaleRollout(b, dir, sizes[0], b.N, telemetry.NewRegistry())
	overhead := telemTier.RolloutSecs / plain.RolloutSecs
	b.ReportMetric(overhead, "telemetry-overhead")
	if telemTier.RolloutSecs > plain.RolloutSecs*1.05+0.5 {
		b.Fatalf("telemetry-enabled %dk rollout took %.2fs vs %.2fs plain (%.2fx); want <= 1.05x",
			sizes[0]/1000, telemTier.RolloutSecs, plain.RolloutSecs, overhead)
	}
	b.Logf("telemetry overhead at %d members: %.2fs plain, %.2fs instrumented (%.2fx)",
		sizes[0], plain.RolloutSecs, telemTier.RolloutSecs, overhead)

	gated := 0.0
	if runtime.GOMAXPROCS(0) < 8 {
		gated = 1
	}
	summary := []benchjson.Result{
		{Name: "BenchmarkScale", N: len(names), Metrics: map[string]float64{
			"gomaxprocs": float64(runtime.GOMAXPROCS(0)), "workers": float64(workers),
			"shard_speedup": ratio, "speedup_gated": gated,
			"telemetry_overhead": overhead,
		}},
	}
	for j, sc := range shardCounts {
		summary = append(summary, benchjson.Result{
			Name: "BenchmarkScale/registry", N: sc,
			Metrics: map[string]float64{"ops_per_sec": throughput[j]},
		})
	}
	tierResult := func(name string, t scaleTier) benchjson.Result {
		return benchjson.Result{
			Name: name, N: t.Members, Labels: map[string]string{"mode": t.Mode},
			Metrics: map[string]float64{
				"register_secs": t.RegisterSecs, "registrations_per_sec": t.RegistrationsPerSec,
				"rollout_secs": t.RolloutSecs, "integrated": float64(t.Integrated),
				"tested": float64(t.Tested), "shards": float64(t.Shards),
			},
		}
	}
	for _, t := range tiers {
		summary = append(summary, tierResult(fmt.Sprintf("BenchmarkScale/rollout%dk", t.Members/1000), t))
	}
	summary = append(summary, tierResult(
		fmt.Sprintf("BenchmarkScale/rollout%dk-telemetry", telemTier.Members/1000), telemTier))
	if _, err := benchjson.WriteEnv("MIRAGE_BENCH_SCALE_JSON", summary); err != nil {
		b.Fatal(err)
	}
}
