package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
)

// Compare mode reads two result sets — JSON-lines files written by runs
// with -out, one from the parent commit and one from the change — and
// prints a workload × metric table: each side's median and quartiles,
// the change in the median, how many pairs the change won, and a
// verdict under the benchmark's bounds.

// taggedRun is one line of a result set.
type taggedRun struct {
	Workload string     `json:"workload"`
	Seed     int64      `json:"seed"`
	Trace    bool       `json:"trace"`
	Result   resultLine `json:"result"`
}

func readSet(path string) ([]taggedRun, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	type key struct {
		workload string
		trace    bool
		seed     int64
	}
	seen := map[key]bool{}
	var runs []taggedRun
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		if strings.TrimSpace(sc.Text()) == "" {
			continue
		}
		var r taggedRun
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		// Runs pair by seed, so a seed may appear once per workload.
		k := key{r.Workload, r.Trace, r.Seed}
		if seen[k] {
			return nil, fmt.Errorf("%s:%d: %s seed %d (trace %v) appears twice", path, line, r.Workload, r.Seed, r.Trace)
		}
		seen[k] = true
		runs = append(runs, r)
	}
	return runs, sc.Err()
}

// series returns one metric's value per seed over the correct runs of
// a workload, and how many runs of that workload failed their checks.
func series(runs []taggedRun, workload string, traced bool, metric string) (bySeed map[int64]float64, bad int) {
	bySeed = map[int64]float64{}
	for _, r := range runs {
		if r.Workload != workload || r.Trace != traced {
			continue
		}
		if !r.Result.Correct {
			bad++
			continue
		}
		if v, ok := r.Result.Metrics[metric]; ok {
			bySeed[r.Seed] = v.Value
		}
	}
	return bySeed, bad
}

// paired returns the values of the seeds both sides ran correctly, in
// seed order, so parent[i] and change[i] come from the same seed.
func paired(parent, change map[int64]float64) (p, c []float64) {
	var seeds []int64
	for s := range parent {
		if _, ok := change[s]; ok {
			seeds = append(seeds, s)
		}
	}
	sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
	for _, s := range seeds {
		p = append(p, parent[s])
		c = append(c, change[s])
	}
	return p, c
}

// Verdicts.
const (
	improved   = "improved"
	regressed  = "regressed"
	unresolved = "unresolved"
	same       = "same"
)

// minPairs is the fewest seed pairs a verdict other than unresolved
// rests on: the nine-of-ten rule needs ten.
const minPairs = 10

// pairOutcome counts the pairs (parent[i], change[i]) the change won and
// lost; ties count for neither.
func pairOutcome(parent, change []float64, lowerBetter bool) (wins, losses int) {
	for i := range parent {
		d := change[i] - parent[i]
		if lowerBetter {
			d = -d
		}
		switch {
		case d > 0:
			wins++
		case d < 0:
			losses++
		}
	}
	return wins, losses
}

// verdict judges one metric on one workload over the seed pairs of
// paired:
//
//   - unresolved: fewer than minPairs pairs;
//   - improved: the change won at least nine tenths of the pairs, and the
//     medians differ by more than the parent's interquartile range;
//   - unresolved: a side's spread (IQR over median) exceeds the bound,
//     unless every change run reads better than every parent run;
//   - regressed: the change's median is worse than the parent's by more
//     than bound, as a share of the parent's median;
//   - same: otherwise.
//
// A metric without a bound (bound 0, the per-layer ones) is regressed
// by the mirror of the improved rule and unresolved when the medians
// differ at all without either rule deciding.
func verdict(parent, change []float64, lowerBetter bool, bound float64) string {
	pairs := len(parent)
	if pairs < minPairs || len(change) != pairs {
		return unresolved
	}
	wins, losses := pairOutcome(parent, change, lowerBetter)
	pm, cm := median(parent), median(change)
	q1, q3 := quartiles(parent)
	gap := math.Abs(cm-pm) > q3-q1
	if wins*10 >= 9*pairs && gap {
		return improved
	}
	if bound == 0 {
		switch {
		case losses*10 >= 9*pairs && gap:
			return regressed
		case cm == pm:
			return same
		}
		return unresolved
	}
	if spread(parent) > bound || spread(change) > bound {
		if allBetter(parent, change, lowerBetter) {
			return same
		}
		return unresolved
	}
	worse := (cm - pm) / math.Abs(pm)
	if !lowerBetter {
		worse = -worse
	}
	if worse > bound {
		return regressed
	}
	return same
}

// allBetter reports whether every change value beats every parent value.
func allBetter(parent, change []float64, lowerBetter bool) bool {
	p, c := sorted(parent), sorted(change)
	if lowerBetter {
		return c[len(c)-1] < p[0]
	}
	return c[0] > p[len(p)-1]
}

// compareMain runs from the root of a checkout, where BENCHMARK.json
// holds the metrics and their bounds.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: mirbench compare parent.jsonl change.jsonl")
		return 2
	}
	sp, err := readSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "mirbench compare:", err)
		return 1
	}
	parent, err := readSet(args[0])
	if err != nil {
		fmt.Fprintln(os.Stderr, "mirbench compare:", err)
		return 1
	}
	change, err := readSet(args[1])
	if err != nil {
		fmt.Fprintln(os.Stderr, "mirbench compare:", err)
		return 1
	}
	writeTable(os.Stdout, sp, args[0], args[1], parent, change)
	return 0
}

func writeTable(w io.Writer, sp *spec, parentName, changeName string, parent, change []taggedRun) {
	rule := strings.Repeat("-", 132)
	fmt.Fprintf(w, "   BENCHMARK COMPARISON\n")
	fmt.Fprintf(w, "%-24s %s\n%-24s %s\n", "parent:", parentName, "change:", changeName)
	fmt.Fprintf(w, "%-24s %d s per run\n", "run length:", sp.RunSeconds)
	fmt.Fprintf(w, "%-24s %s/%s, %d CPUs\n", "compared on:", runtime.GOOS, runtime.GOARCH, runtime.NumCPU())
	fmt.Fprintf(w, "%-24s improved = change wins >= 9/10 pairs and medians differ by more than the parent IQR;\n", "rule:")
	fmt.Fprintf(w, "%-24s regressed = median worse by more than the bound; unresolved = spread wider than the bound\n", "")
	fmt.Fprintf(w, "%-24s or fewer than %d seeds run correctly on both sides; quartiles and medians are over those seeds\n", "", minPairs)
	fmt.Fprintln(w, rule)

	names := map[string]bool{}
	for _, r := range append(append([]taggedRun(nil), parent...), change...) {
		names[r.Workload] = true
	}
	var wls []string
	for n := range names {
		wls = append(wls, n)
	}
	sort.Strings(wls)
	fmt.Fprintf(w, "%-10s %-32s %-6s %-30s %-30s %8s %6s  %s\n",
		"workload", "metric", "unit", "parent median [q1, q3]", "change median [q1, q3]", "delta", "wins", "verdict")
	fmt.Fprintln(w, rule)
	for _, wl := range wls {
		for _, traced := range []bool{false, true} {
			list := sp.EndToEnd
			if traced {
				list = sp.PerLayer
			}
			for _, m := range list {
				ps, pbad := series(parent, wl, traced, m.Name)
				cs, cbad := series(change, wl, traced, m.Name)
				if len(ps) == 0 && len(cs) == 0 {
					continue
				}
				p, c := paired(ps, cs)
				lower := m.Better != "higher"
				wins, _ := pairOutcome(p, c, lower)
				delta := "n/a"
				if pm := median(p); pm != 0 && len(c) > 0 {
					delta = fmt.Sprintf("%+.1f%%", 100*(median(c)-pm)/math.Abs(pm))
				}
				v := verdict(p, c, lower, m.Bound)
				if pbad+cbad > 0 {
					v += fmt.Sprintf(" (%d incorrect runs)", pbad+cbad)
				}
				fmt.Fprintf(w, "%-10s %-32s %-6s %-30s %-30s %8s %6s  %s\n",
					wl, m.Name, m.Unit, summary(p), summary(c), delta, fmt.Sprintf("%d/%d", wins, len(p)), v)
			}
		}
	}
	fmt.Fprintln(w, rule)
}

func summary(xs []float64) string {
	if len(xs) == 0 {
		return "-"
	}
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.5g [%.5g, %.5g]", median(xs), q1, q3)
}
