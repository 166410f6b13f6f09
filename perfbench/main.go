// Command perfbench is the repository's end-to-end benchmark. It runs one
// of three seeded workloads in-process — the measurement campaign, the
// inline PII gateway, and live report serving — and prints every metric
// by name and unit as the last line of standard output. With -trace 1 it
// instead times the calls into each layer's public functions and reads
// the program's obs counters. README.md lists the workloads and metrics.
//
//	go run . -workload campaign -seed 1 -seconds 10 -trace 0
//
// run from the repository root (the serve-live workload reads
// dataset.json there), or through run.sh, which builds first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// setupReps is how many times a run repeats its set-up; setup_s is the
// median, so one slow repetition (a cold page cache, a busy neighbour)
// does not move it. Each repetition starts after a garbage collection,
// from the same heap.
const setupReps = 15

type config struct {
	seed    int64
	seconds time.Duration
	// root is the repository checkout: dataset.json is read from it and
	// scratch files go under root/.bench_build.
	root string
}

// mode selects what a workload function measures.
type mode int

const (
	// untraced is the end-to-end run: only end-to-end metrics.
	untraced mode = iota
	// traced is the traced run of the selected workload, at full size.
	traced
	// probe is a short traced pass of a workload other than the selected
	// one, so that every traced run reports every per-layer metric.
	probe
)

// outcome is what one workload run measured.
type outcome struct {
	setup     []time.Duration // one per set-up repetition
	latencies []time.Duration // one per op
	read      reading         // the measured phase
	attempted int64
	failed    int64 // ops that did not complete (errors, error statuses)
	incorrect int64 // ops that completed with output the checks reject
	bytes     int64 // payload bytes delivered to the workload's user
	// checks names every output check that failed; any entry makes the
	// run incorrect.
	checks []string
	// warnings are anomalies that are reported but do not fail the run.
	warnings []string
	layers   map[string]metric
	samples  map[string]tail
}

func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.checks = append(o.checks, fmt.Sprintf(format, args...))
	}
}

func (o *outcome) warn(format string, args ...any) {
	o.warnings = append(o.warnings, fmt.Sprintf(format, args...))
}

func (o *outcome) layer(name, unit string, v float64) {
	if o.layers == nil {
		o.layers = make(map[string]metric)
	}
	o.layers[name] = metric{Value: v, Unit: unit}
}

// failedRatio is failed or incorrect ops ÷ attempted.
func (o *outcome) failedRatio() float64 {
	return ratio(float64(o.failed+o.incorrect), float64(o.attempted))
}

// endToEnd computes the end-to-end metrics of an untraced run.
func (o *outcome) endToEnd() map[string]metric {
	ops := float64(len(o.latencies))
	lat := summarize(ms(o.latencies))
	o.sample("op_ms", lat)
	secs := o.read.Wall.Seconds()
	return map[string]metric{
		"setup_s":         {median(seconds(o.setup)), "s"},
		"ops_per_s":       {ratio(ops, secs), "1/s"},
		"op_ms_p50":       {lat.P50, "ms"},
		"op_ms_p95":       {lat.P95, "ms"},
		"cpu_ms_per_op":   {ratio(float64(o.read.CPU)/float64(time.Millisecond), ops), "ms"},
		"alloc_kb_per_op": {ratio(float64(o.read.Alloc)/1024, ops), "kB"},
		"peak_rss_mb":     {peakRSSMB(), "MB"},
		"ok_ratio":        {1 - o.failedRatio(), "ratio"},
		"mb_per_s":        {ratio(float64(o.bytes)/1e6, secs), "MB/s"},
	}
}

func (o *outcome) sample(name string, t tail) {
	if o.samples == nil {
		o.samples = make(map[string]tail)
	}
	o.samples[name] = t
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runInfo is printed on the line before the result: the environment the
// run measured in, the sample counts behind each percentile, and the
// output checks that failed.
type runInfo struct {
	Workload   string          `json:"workload"`
	Seed       int64           `json:"seed"`
	Seconds    int             `json:"seconds"`
	Traced     bool            `json:"traced"`
	NProc      int             `json:"nproc"`
	GOMAXPROCS int             `json:"gomaxprocs"`
	GoVersion  string          `json:"go_version"`
	Network    string          `json:"network"`
	Samples    map[string]tail `json:"samples,omitempty"`
	Failures   []string        `json:"failed_checks,omitempty"`
	Warnings   []string        `json:"warnings,omitempty"`
}

type workloadFunc func(cfg config, m mode) (*outcome, error)

// workloads in the order a traced run executes them.
var workloadNames = []string{"campaign", "gateway", "serve-live"}

var workloads = map[string]workloadFunc{
	"campaign":   runCampaign,
	"gateway":    runGateway,
	"serve-live": runServeLive,
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload to run: campaign, gateway or serve-live")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	secs := flag.Int("seconds", 10, "length of the measured phase in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end run")
	flag.Parse()
	fn, ok := workloads[*name]
	if !ok || *secs < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want -workload campaign|gateway|serve-live, -seconds >= 1, -trace 0|1\n")
		return 2
	}
	root, err := os.Getwd()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if _, err := os.Stat(filepath.Join(root, "dataset.json")); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: run from the repository root: %v\n", err)
		return 1
	}
	cfg := config{seed: *seed, seconds: time.Duration(*secs) * time.Second, root: root}
	info := runInfo{
		Workload: *name, Seed: *seed, Seconds: *secs, Traced: *trace == 1,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Network: "loopback only",
	}

	var res result
	var checks []string
	if *trace == 0 {
		o, err := fn(cfg, untraced)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
			return 1
		}
		res = result{Attempted: o.attempted, Failed: o.failed, Metrics: o.endToEnd()}
		info.Samples, checks, info.Warnings = o.samples, o.checks, o.warnings
	} else {
		res.Metrics = make(map[string]metric)
		info.Samples = make(map[string]tail)
		for _, w := range workloadNames {
			m := probe
			if w == *name {
				m = traced
			}
			o, err := workloads[w](cfg, m)
			if err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: traced %s: %v\n", w, err)
				return 1
			}
			for k, v := range o.layers {
				res.Metrics[k] = v
			}
			for k, v := range o.samples {
				info.Samples[w+"."+k] = v
			}
			for _, c := range o.checks {
				checks = append(checks, w+": "+c)
			}
			for _, c := range o.warnings {
				info.Warnings = append(info.Warnings, w+": "+c)
			}
			if m == traced {
				res.Attempted, res.Failed = o.attempted, o.failed
				res.Metrics["failed_ratio"] = metric{o.failedRatio(), "ratio"}
			}
		}
	}
	sort.Strings(checks)
	info.Failures = checks
	res.Correct = len(checks) == 0
	for k, t := range info.Samples {
		if t.Beyond < 10 {
			fmt.Fprintf(os.Stderr, "perfbench: %s p95 rests on %d samples beyond it (n=%d)\n", k, t.Beyond, t.N)
		}
	}
	for _, c := range info.Warnings {
		fmt.Fprintf(os.Stderr, "perfbench: warning: %s\n", c)
	}
	for _, c := range checks {
		fmt.Fprintf(os.Stderr, "perfbench: CHECK FAILED: %s\n", c)
	}
	enc := json.NewEncoder(os.Stdout)
	if err := enc.Encode(info); err != nil {
		return 1
	}
	if err := enc.Encode(res); err != nil {
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}
