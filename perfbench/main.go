// Command perfbench is the repository benchmark. It runs one seeded,
// closed-loop workload against a fresh in-process deployment on
// loopback — waterrouter with an edge cache tier in front of two
// watersrvd engines with their own disk tiers — checks every output,
// and prints its end-to-end metrics. With --trace 1 it instead runs a
// traced pass that times the benchmark's calls into each layer and
// prints per-layer metrics. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// setupReps is how many times a run sets the deployment up; setup_s is
// the median.
const setupReps = 5

// workload is one traffic mix.
type workload struct {
	name    string
	opUnit  string  // what ops_per_s counts
	latUnit string  // what one p50_ms/tail_ms sample times
	tailQ   float64 // the percentile reported as tail_ms
	prewarm func(*world) error
	run     func(*world, time.Duration) *phase
	replay  func(seed uint64, dir string) (*countsBlock, error)
}

var workloads = []*workload{
	{name: "plan_cold", opUnit: "plans", latUnit: "plan request", tailQ: 0.75,
		prewarm: prewarmPlan, run: runPlanCold, replay: replayPlanCold},
	{name: "serve_hot", opUnit: "hits", latUnit: "edge-cache hit via waterrouter", tailQ: 0.99,
		prewarm: prewarmHot, run: runServeHot, replay: replayServeHot},
	{name: "batch_study", opUnit: "cells", latUnit: "batch job", tailQ: 0.75,
		prewarm: prewarmPlan, run: runBatch, replay: replayBatch},
	{name: "stream_cosim", opUnit: "intervals", latUnit: "gap between SSE intervals", tailQ: 0.99,
		prewarm: prewarmPlan, run: runStreams, replay: replayStream},
}

func workloadByName(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	workload *workload
	seed     uint64
	seconds  int
	trace    bool
	workdir  string
	commit   string
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: plan_cold, serve_hot, batch_study or stream_cosim")
		seed    = flag.Uint64("seed", 1, "seed of the generated inputs")
		seconds = flag.Int("seconds", 15, "length of the timed phase in seconds")
		trace   = flag.Int("trace", 0, "1 runs the traced per-layer pass instead of the end-to-end one")
		workdir = flag.String("workdir", filepath.Join(".bench_build", "work"), "directory for temporary cache directories and trace files")
		commit  = flag.String("commit", "unknown", "commit being measured, for the run metadata")
	)
	flag.Parse()
	o := options{seed: *seed, seconds: *seconds, trace: *trace == 1, workdir: *workdir, commit: *commit}
	if o.workload = workloadByName(*name); o.workload == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need --workload plan_cold|serve_hot|batch_study|stream_cosim, --seconds ≥ 1 and --trace 0|1")
		os.Exit(2)
	}
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	var (
		res *result
		err error
	)
	if o.trace {
		res, err = runTraced(o)
	} else {
		res, err = runEndToEnd(o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

// metadata is printed with every result.
func metadata(o options) map[string]any {
	return map[string]any{
		"workload":    o.workload.name,
		"seed":        o.seed,
		"seconds":     o.seconds,
		"trace":       o.trace,
		"nproc":       runtime.NumCPU(),
		"gomaxprocs":  runtime.GOMAXPROCS(0),
		"go":          runtime.Version(),
		"commit":      o.commit,
		"hot_clients": hotClients(),
	}
}

// setUp starts a fresh deployment and pre-warms it, returning it and
// the time both took.
func setUp(o options, dir string, tr *tracer) (*world, float64, error) {
	t0 := time.Now()
	d, err := newDeployment(dir)
	if err != nil {
		return nil, 0, err
	}
	w := newWorld(d, o.seed, tr)
	if err := o.workload.prewarm(w); err != nil {
		w.close()
		return nil, 0, err
	}
	return w, time.Since(t0).Seconds(), nil
}

// setUpMeasured sets up setupReps times, keeping the last deployment,
// and returns it with the median set-up time.
func setUpMeasured(o options, dir string, tr *tracer) (*world, float64, []float64, error) {
	var times []float64
	for {
		w, s, err := setUp(o, filepath.Join(dir, fmt.Sprintf("setup%d", len(times))), tr)
		if err != nil {
			return nil, 0, nil, err
		}
		times = append(times, s)
		if len(times) == setupReps {
			return w, median(times), times, nil
		}
		if err := w.close(); err != nil {
			return nil, 0, nil, err
		}
	}
}

// liveHeapMB is the live heap after a forced collection.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// summary is one timed phase reduced to the end-to-end metrics.
type summary struct {
	setupS    float64
	opsPerS   float64
	p50, tail float64
	heapMB    float64
	named     map[string]any // the workload's metrics under their own names
	report    map[string]any
}

// finite replaces +Inf (a percentile that landed on a failed
// operation) with the phase's wall time, the worst latency the phase
// could have observed, so the value stays a JSON number.
func finite(v float64, p *phase) float64 {
	if math.IsInf(v, 1) {
		return float64(p.wall.Nanoseconds()) / 1e6
	}
	return v
}

// pctEntry is a reported percentile with its sample count; a
// percentile with fewer than minBeyond samples beyond it is withheld.
func pctEntry(s *samples, q float64) map[string]any {
	v, ok := s.percentile(q)
	e := map[string]any{"q": q, "n": s.n(), "min_n": minSamplesFor(q)}
	switch {
	case !ok:
		e["withheld"] = "fewer than 10 samples beyond"
	case math.IsInf(v, 1):
		e["withheld"] = "lands on a failed operation"
	default:
		e["value"] = v
	}
	return e
}

// summarize reduces a phase to its metrics, all but the live heap.
func summarize(o options, p *phase, setupS float64) *summary {
	wl := o.workload
	p50, _ := p.lat.percentile(0.5)
	tail, tailOK := p.lat.percentile(wl.tailQ)
	if !tailOK {
		fmt.Fprintf(os.Stderr, "perfbench: warning: tail p%g has fewer than %d samples beyond it (%d samples)\n",
			wl.tailQ*100, minBeyond, p.lat.n())
	}
	s := &summary{
		setupS:  setupS,
		opsPerS: p.ops / p.wall.Seconds(),
		p50:     finite(p50, p),
		tail:    finite(tail, p),
	}
	named := map[string]any{
		wl.opUnit + "_per_s": s.opsPerS,
		"setup_s":            setupS,
		"latency_of":         wl.latUnit,
		"p50":                pctEntry(&p.lat, 0.5),
		"tail":               pctEntry(&p.lat, wl.tailQ),
		"p90":                pctEntry(&p.lat, 0.9),
		"p99":                pctEntry(&p.lat, 0.99),
	}
	switch wl.name {
	case "serve_hot":
		named["direct_p50"] = pctEntry(&p.direct, 0.5)
		named["direct_p99"] = pctEntry(&p.direct, 0.99)
	case "stream_cosim":
		named["first_interval_ms"] = map[string]any{"value": finite(median(p.first.ms), p), "n": p.first.n(), "stat": "median"}
	}
	if len(p.byKind) > 0 {
		byKind := map[string]any{}
		for kind, ks := range p.byKind {
			byKind[kind] = pctEntry(ks, 0.5)
		}
		named["p50_by_kind"] = byKind
	}
	s.named = named
	s.report = map[string]any{
		"attempted": p.attempted, "failed": p.failed, "ops": p.ops,
		"wall_s": p.wall.Seconds(), "metrics": named, "errors": p.errs,
	}
	return s
}

func (s *summary) metrics() map[string]metric {
	return map[string]metric{
		"setup_s":      {s.setupS, "s"},
		"ops_per_s":    {s.opsPerS, "1/s"},
		"p50_ms":       {s.p50, "ms"},
		"tail_ms":      {s.tail, "ms"},
		"heap_live_mb": {s.heapMB, "MB"},
	}
}

// runPhase sets up, runs one timed phase of dur and tears down.
func runPhase(o options, dir string, dur time.Duration, tr *tracer) (*phase, *summary, []float64, error) {
	w, setupS, setups, err := setUpMeasured(o, dir, tr)
	if err != nil {
		return nil, nil, nil, err
	}
	p := o.workload.run(w, dur)
	s := summarize(o, p, setupS)
	// The latency samples are the benchmark's own memory; drop them so
	// the live heap is the deployment's.
	p.lat, p.direct, p.first, p.byKind = samples{}, samples{}, samples{}, nil
	s.heapMB = liveHeapMB()
	s.named["heap_live_mb"] = s.heapMB
	if err := w.close(); err != nil {
		return nil, nil, nil, err
	}
	return p, s, setups, nil
}

func runEndToEnd(o options) (*result, error) {
	dir, err := os.MkdirTemp(o.workdir, o.workload.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	p, s, setups, err := runPhase(o, dir, time.Duration(o.seconds)*time.Second, nil)
	if err != nil {
		return nil, err
	}
	report := metadata(o)
	report["setup_runs_s"] = setups
	report["phase"] = s.report
	printReport(report)
	for _, e := range p.errs {
		fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
	}
	return &result{Correct: p.correct(), Attempted: p.attempted, Failed: p.failed, Metrics: s.metrics()}, nil
}

func printReport(report map[string]any) {
	b, err := json.Marshal(map[string]any{"report": report})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: report:", err)
		return
	}
	fmt.Println(string(b))
}
