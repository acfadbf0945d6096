// Command mirbench is the Mirage benchmark. It drives the system through
// its public APIs only, on three workloads:
//
//	fleet-10k  one journaled Balanced rollout over 10,000 sim agents
//	swarm-100  a Balanced rollout over 100 real agents with peer swarming
//	drift-10k  profile deltas folded into a 10,000-machine live clustering
//
// A run prints a human summary on standard error and, as the last line
// of standard output, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": N, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run times its calls into each layer and prints the per-layer ones,
// writing its spans as a Chrome trace under the output directory.
//
//	mirbench -workload fleet-10k -seed 1 -seconds 20 -trace 0
//	mirbench compare parent.jsonl change.jsonl
//
// See README.md for what each workload and metric is for.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// config is one run's settings.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	dir      string
}

func (c config) tracePath() string {
	return filepath.Join(c.dir, "traces", fmt.Sprintf("%s-seed%d.json", c.workload, c.seed))
}

// result is one run's outcome.
type result struct {
	correct           bool
	err               error
	attempted, failed int64
	metrics           map[string]float64
	samples           map[string]int // sample counts behind the timings
}

func newResult() *result { return &result{correct: true} }

func (r *result) fail(err error) *result {
	r.correct, r.err = false, err
	return r
}

var workloads = map[string]func(context.Context, config) (*result, error){
	"fleet-10k": func(ctx context.Context, c config) (*result, error) {
		return runRollouts(ctx, c, fleetShape{members: 10_000, clusters: 10})
	},
	"swarm-100": func(ctx context.Context, c config) (*result, error) {
		return runRollouts(ctx, c, fleetShape{members: 100, clusters: 5, swarm: true})
	},
	"drift-10k": runDrift,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	os.Exit(runMain(os.Args[1:]))
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("mirbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "fleet-10k, swarm-100 or drift-10k")
	seed := fs.Int64("seed", 1, "seed every generated input derives from")
	seconds := fs.Int("seconds", 20, "how long the run measures")
	trace := fs.Int("trace", 0, "1 times each layer and reports the per-layer metrics")
	dir := fs.String("dir", ".bench_build/out", "directory for journals and traces")
	out := fs.String("out", "", "append the result, tagged with workload and seed, to this JSON-lines file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	run, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "mirbench: need -workload fleet-10k|swarm-100|drift-10k, -seconds >= 1, -trace 0|1\n")
		return 2
	}
	// The load comes from this process alone, on no more threads than
	// the machine has CPUs.
	if n := runtime.NumCPU(); runtime.GOMAXPROCS(0) > n {
		runtime.GOMAXPROCS(n)
	}
	cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, dir: *dir}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "mirbench:", err)
		return 1
	}
	res, err := run(context.Background(), cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mirbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	list := endToEnd
	if cfg.trace {
		list = perLayer
	} else if res.correct {
		ok := 1.0
		if res.attempted > 0 {
			ok = 1 - float64(res.failed)/float64(res.attempted)
		}
		res.metrics["op_ok_ratio"] = ok
	}
	line, err := encode(res, list, cfg.trace)
	if err != nil {
		fmt.Fprintln(os.Stderr, "mirbench:", err)
		return 1
	}
	summarize(cfg, res, list)
	if *out != "" {
		if err := appendResult(*out, cfg, line); err != nil {
			fmt.Fprintln(os.Stderr, "mirbench:", err)
			return 1
		}
	}
	fmt.Println(string(line))
	if !res.correct {
		fmt.Fprintf(os.Stderr, "mirbench: %s: correctness check failed: %v\n", cfg.workload, res.err)
		return 1
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// encode renders the result line with every metric of list. A failed
// run reports no metrics. An end-to-end metric the workload did not
// produce is a bug; a per-layer one is a layer the workload never calls
// and reads 0.
func encode(res *result, list []metricSpec, traced bool) ([]byte, error) {
	line := resultLine{Correct: res.correct, Attempted: res.attempted, Failed: res.failed,
		Metrics: map[string]metricValue{}}
	if line.Attempted < 1 {
		line.Attempted = 1
	}
	if res.correct {
		for _, m := range list {
			v, ok := res.metrics[m.Name]
			if !ok && !traced {
				return nil, fmt.Errorf("workload reported no %s", m.Name)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("%s is %v", m.Name, v)
			}
			line.Metrics[m.Name] = metricValue{v, m.Unit}
		}
	}
	return json.Marshal(line)
}

// summarize prints the run's metrics, with their sample counts, for a
// human reader.
func summarize(cfg config, res *result, list []metricSpec) {
	fmt.Fprintf(os.Stderr, "mirbench %s seed=%d seconds=%d trace=%v gomaxprocs=%d nproc=%d\n",
		cfg.workload, cfg.seed, cfg.seconds, cfg.trace, runtime.GOMAXPROCS(0), runtime.NumCPU())
	fmt.Fprintf(os.Stderr, "  correct=%v attempted=%d failed=%d\n", res.correct, res.attempted, res.failed)
	for _, m := range list {
		if v, ok := res.metrics[m.Name]; ok {
			fmt.Fprintf(os.Stderr, "  %-34s %14.6g %s\n", m.Name, v, m.Unit)
		}
	}
	var keys []string
	for k := range res.samples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		n := res.samples[k]
		fmt.Fprintf(os.Stderr, "  samples %-10s n=%-7d highest percentile with >=10 beyond: p%g\n", k, n, tailPercentile(n))
	}
	if cfg.trace {
		fmt.Fprintf(os.Stderr, "  spans written to %s\n", cfg.tracePath())
	}
}

// appendResult adds one tagged result line to a JSON-lines result set,
// the input of compare mode.
func appendResult(path string, cfg config, line []byte) error {
	tagged, err := json.Marshal(struct {
		Workload string          `json:"workload"`
		Seed     int64           `json:"seed"`
		Trace    bool            `json:"trace"`
		Result   json.RawMessage `json:"result"`
	}{cfg.workload, cfg.seed, cfg.trace, line})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(tagged, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
