// mirage-sim runs the event-driven deployment simulator of paper §4.3 and
// prints the per-cluster latency CDFs and upgrade overheads behind
// Figures 10 and 11.
//
// Usage:
//
//	mirage-sim [-machines 100000] [-clusters 20] [-prevalent 15]
//	           [-clustering sound|imperfect] [-misplaced first|last]
//	           [-seed 42] [-plan balanced|frontloading|nostaging|random|adaptive]
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/logx"
	"repro/internal/scenario"
	"repro/internal/simulator"
	"repro/internal/staging"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the whole command: it parses args, prints to stdout, and returns
// the exit status — 2 for bad flags, reported on stderr.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mirage-sim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	machines := fs.Int("machines", scenario.PaperMachines, "total simulated machines")
	clusters := fs.Int("clusters", scenario.PaperClusters, fmt.Sprintf("number of clusters (at least %d)", scenario.MinClusters))
	prevalent := fs.Int("prevalent", scenario.PaperPrevalentPct, "percent of machines hit by the prevalent problem")
	clustering := fs.String("clustering", "sound", "clustering quality: sound or imperfect")
	misplaced := fs.String("misplaced", "first", "imperfect clustering: misplaced machine in first or last clean cluster")
	seed := fs.Uint64("seed", 42, "RandomStaging shuffle seed")
	plan := fs.String("plan", "", "print the staged wave schedule for this policy and exit")
	logOpts := logx.Flags(fs)
	if err := fs.Parse(args); err == flag.ErrHelp {
		return 0
	} else if err != nil {
		return 2
	}
	if _, err := logOpts.Setup(); err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	if *clusters < scenario.MinClusters {
		fmt.Fprintf(stderr, "mirage-sim: -clusters %d: the scenario's 3 problem groups need at least %d clusters\n",
			*clusters, scenario.MinClusters)
		return 2
	}
	if *machines < *clusters {
		fmt.Fprintf(stderr, "mirage-sim: -machines %d: need at least one machine per cluster (-clusters %d)\n",
			*machines, *clusters)
		return 2
	}

	p := simulator.DefaultParams()
	build := func(placement scenario.Placement) []simulator.ClusterSpec {
		specs := scenario.Deployment(*machines, *clusters, *prevalent, placement)
		if *clustering == "imperfect" {
			specs = scenario.WithMisplaced(specs, *misplaced == "first")
		}
		return specs
	}

	if *plan != "" {
		policy, ok := staging.ParsePolicy(*plan)
		if !ok {
			fmt.Fprintf(stderr, "unknown policy %q\n", *plan)
			return 2
		}
		fmt.Fprint(stdout, scenario.DeploymentPlan(policy, build(scenario.ProblemsLast), *seed).Describe())
		return 0
	}

	results := []*simulator.Result{
		simulator.NoStaging(p, build(scenario.ProblemsLast)),
		simulator.Balanced(p, build(scenario.ProblemsLast)),
		simulator.RandomStaging(p, build(scenario.ProblemsUniform), *seed),
		simulator.FrontLoading(p, build(scenario.ProblemsLast)),
		simulator.Adaptive(p, build(scenario.ProblemsLast)),
	}
	worst := simulator.Balanced(p, build(scenario.ProblemsFirst))
	worst.Protocol = "Balanced(worst)"
	results[1].Protocol = "Balanced(best)"
	results = append(results[:2], append([]*simulator.Result{worst}, results[2:]...)...)

	fmt.Fprintf(stdout, "scenario: %d machines, %d clusters, %d%% prevalent, %s clustering\n\n",
		*machines, *clusters, *prevalent, *clustering)
	fmt.Fprintf(stdout, "%-18s %10s %10s %8s %8s\n", "protocol", "makespan", "overhead", "reports", "fixes")
	for _, r := range results {
		fmt.Fprintf(stdout, "%-18s %10.0f %10d %8d %8d\n", r.Protocol, r.Makespan, r.Overhead, r.Reports, r.Fixes)
	}

	fmt.Fprintln(stdout, "\nper-cluster latency CDF (time: fraction of clusters upgraded)")
	for _, r := range results {
		fmt.Fprintf(stdout, "\n%s:\n", r.Protocol)
		for _, pt := range r.CDF() {
			fmt.Fprintf(stdout, "  t=%7.0f  %5.2f\n", pt.Time, pt.Fraction)
		}
	}
	return 0
}
