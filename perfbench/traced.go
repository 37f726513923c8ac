package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// endToEndNames and perLayerNames are the metric names each kind of run
// prints; BENCHMARK.json lists the same names (see TestBenchmarkJSON).
var endToEndNames = []string{"setup_s", "ops_per_s", "p50_ms", "tail_ms", "heap_live_mb"}

func perLayerNames() []string {
	names := []string{
		"api.key_us", "api.decode_us", "httpapi.hit_us", "service.hit_us",
		"router.edge_hit_us", "rcache.get_us", "rcache.put_us", "router.edge_hit_ratio",
		"core.solves_per_plan", "service.run_plan_ms", "service.queue_ms",
		"thermal.assemble_ms.g64", "thermal.assemble_ms.g128", "thermal.assemble_allocs.g128",
		"thermal.structural_ms.g128", "core.symbolic_hits", "core.precond_reused", "core.precond_refreshed",
		"thermal.syscache_hits", "thermal.syscache_misses", "service.dedup_hits", "service.cells_cached",
		"service.mc_cells_per_s", "service.sweep_cells_per_s", "service.audit_cells_per_s",
		"thermal.step_ms", "cosim.next_ms", "cosim.checkpoint_ms", "service.stream_checkpoints", "cosim.first_ms",
		"thermal.cg_iters.g256x8", "trace.overhead_p50_ms", "trace.overhead_ops_pct",
	}
	for _, g := range gridClasses {
		for _, m := range []string{"stack.build_ms", "core.plan_ms", "thermal.mg_setup_ms", "thermal.cg_ms", "thermal.cg_iters"} {
			names = append(names, fmt.Sprintf("%s.g%d", m, g))
		}
	}
	sort.Strings(names)
	return names
}

// countMetrics maps per-layer metrics onto the counts block.
var countMetrics = []struct{ metric, count string }{
	{"thermal.syscache_hits", "assembly_pool.hits"},
	{"thermal.syscache_misses", "assembly_pool.misses"},
	{"service.dedup_hits", "engine.dedup_hits"},
	{"service.cells_cached", "cells_cached"},
	{"core.symbolic_hits", "symbolic.hits"},
	{"core.precond_reused", "precond.reused"},
	{"core.precond_refreshed", "precond.refreshed"},
	{"service.stream_checkpoints", "stream.checkpoints"},
}

// runTraced is the per-layer pass: the timed phase twice at half
// length on fresh deployments — untraced, then with a span around every
// client call — followed by the counts replay and the layer probes.
// The difference between the two phases is the tracing overhead.
func runTraced(o options) (*result, error) {
	dir, err := os.MkdirTemp(o.workdir, o.workload.name+"-trace-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	half := time.Duration(o.seconds) * time.Second / 2
	plain, plainSum, _, err := runPhase(o, filepath.Join(dir, "untraced"), half, nil)
	if err != nil {
		return nil, err
	}
	tr := newTracer()
	traced, tracedSum, _, err := runPhase(o, filepath.Join(dir, "traced"), half, tr)
	if err != nil {
		return nil, err
	}
	counts, err := o.workload.replay(o.seed, filepath.Join(dir, "replay"))
	if err != nil {
		return nil, err
	}
	// The probes get their own tracer so a busy timed phase that fills
	// its span cap cannot crowd them out.
	probeTr := newTracer()
	metrics, err := runProbes(probeTr, o.seed, filepath.Join(dir, "probes"))
	if err != nil {
		return nil, err
	}
	metrics["router.edge_hit_ratio"] = metric{counts.ratio("router.edge_hits", "router.edge_misses"), "ratio"}
	for _, m := range countMetrics {
		metrics[m.metric] = metric{float64(counts.get(m.count)), "count"}
	}
	overhead := map[string]float64{
		"p50_ms":    tracedSum.p50 - plainSum.p50,
		"tail_ms":   tracedSum.tail - plainSum.tail,
		"ops_per_s": tracedSum.opsPerS - plainSum.opsPerS,
	}
	metrics["trace.overhead_p50_ms"] = metric{overhead["p50_ms"], "ms"}
	metrics["trace.overhead_ops_pct"] = metric{100 * (plainSum.opsPerS - tracedSum.opsPerS) / plainSum.opsPerS, "%"}
	if err := checkNames(metrics, perLayerNames()); err != nil {
		return nil, err
	}

	report := metadata(o)
	report["untraced"] = plainSum.report
	report["traced"] = tracedSum.report
	report["tracing_overhead"] = overhead
	report["counts"] = counts
	tracePath := filepath.Join(filepath.Dir(o.workdir), "traces", fmt.Sprintf("%s-seed%d.json", o.workload.name, o.seed))
	if err := os.MkdirAll(filepath.Dir(tracePath), 0o755); err != nil {
		return nil, err
	}
	doc := map[string]any{"meta": report, "metrics": metrics, "timed_phase": tr.doc(), "probes": probeTr.doc()}
	if err := writeTrace(tracePath, doc); err != nil {
		return nil, err
	}
	report["trace_file"] = tracePath
	printReport(report)

	res := &result{
		Correct:   plain.correct() && traced.correct() && len(counts.Errors) == 0,
		Attempted: plain.attempted + traced.attempted + counts.attempted,
		Failed:    plain.failed + traced.failed + counts.failed,
		Metrics:   metrics,
	}
	for _, p := range []*phase{plain, traced} {
		for _, e := range p.errs {
			fmt.Fprintln(os.Stderr, "perfbench: check failed:", e)
		}
	}
	for _, e := range counts.Errors {
		fmt.Fprintln(os.Stderr, "perfbench: replay check failed:", e)
	}
	return res, nil
}

// checkNames fails if a run's metrics differ from the declared list.
func checkNames(m map[string]metric, want []string) error {
	if len(m) != len(want) {
		return fmt.Errorf("emitted %d metrics, declared %d", len(m), len(want))
	}
	for _, n := range want {
		if _, ok := m[n]; !ok {
			return fmt.Errorf("declared metric %s was not emitted", n)
		}
	}
	return nil
}
