package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/url"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"waterimm/internal/router"
	"waterimm/internal/service"
)

// The counts block replays a fixed sample of a workload's seeded inputs
// on a fresh deployment and reads the program's own counters
// (Engine.Metrics, Router.Metrics, and the OnSolve-fed solver stats)
// before and after. Because the sample is fixed rather than timed,
// the counts of the sequential workloads repeat exactly at a fixed
// GOMAXPROCS. batch_study runs its cells concurrently on the engines'
// worker pools, so which cell builds a shared system first — and hence
// the pool, dedup and solver counts — depends on scheduling; it is
// replayed batchReplays times and every count carries its spread.

const (
	planReplayRequests = 6
	hotReplayRequests  = 200
	batchReplayJobs    = 3
	batchReplays       = 3
)

// countEntry is one count over the replays: its first value, its
// spread, and whether the workload's design makes it repeat exactly.
type countEntry struct {
	Value uint64 `json:"value"`
	Min   uint64 `json:"min"`
	Max   uint64 `json:"max"`
	Exact bool   `json:"exact"`
}

type countsBlock struct {
	Workload   string                `json:"workload"`
	GOMAXPROCS int                   `json:"gomaxprocs"`
	Replays    int                   `json:"replays"`
	Counts     map[string]countEntry `json:"counts"`
	Errors     []string              `json:"errors,omitempty"`
	attempted  int
	failed     int
}

func (c *countsBlock) fail(err error) {
	c.failed++
	c.Errors = append(c.Errors, err.Error())
}

// get returns a count's first-replay value (0 when absent).
func (c *countsBlock) get(name string) uint64 { return c.Counts[name].Value }

// snapshot is the program's counters at one instant.
type snapshot struct {
	engines service.Snapshot
	router  router.Snapshot
}

func (d *deployment) snapshot() snapshot {
	return snapshot{engines: d.engineTotals(), router: d.rt.Metrics()}
}

// countsBetween turns two snapshots into the counts block's entries.
func countsBetween(a, b snapshot) map[string]uint64 {
	e0, e1 := a.engines, b.engines
	out := map[string]uint64{
		"engine.mem_hits":          e1.CacheHitsMem - e0.CacheHitsMem,
		"engine.disk_hits":         e1.CacheHitsDisk - e0.CacheHitsDisk,
		"engine.misses":            e1.CacheMisses - e0.CacheMisses,
		"engine.dedup_hits":        e1.DedupHits - e0.DedupHits,
		"engine.jobs_done":         e1.JobsDone - e0.JobsDone,
		"assembly_pool.hits":       e1.Assembly.Hits - e0.Assembly.Hits,
		"assembly_pool.misses":     e1.Assembly.Misses - e0.Assembly.Misses,
		"symbolic.hits":            e1.AssemblySymbolicHits - e0.AssemblySymbolicHits,
		"symbolic.misses":          e1.AssemblySymbolicMisses - e0.AssemblySymbolicMisses,
		"precond.reused":           e1.PrecondReused - e0.PrecondReused,
		"precond.refreshed":        e1.PrecondRefreshed - e0.PrecondRefreshed,
		"stream.intervals":         e1.StreamIntervals - e0.StreamIntervals,
		"stream.checkpoints":       e1.StreamCheckpoints - e0.StreamCheckpoints,
		"router.edge_hits":         b.router.EdgeCacheHits - a.router.EdgeCacheHits,
		"router.edge_misses":       b.router.EdgeCacheMisses - a.router.EdgeCacheMisses,
		"mc.samples_deduped":       e1.MCSamplesDeduped - e0.MCSamplesDeduped,
		"solver.jacobi.solves":     0,
		"solver.jacobi.iterations": 0,
		"solver.mg.solves":         0,
		"solver.mg.iterations":     0,
	}
	for kind, s1 := range e1.Solver {
		var solves, iters uint64
		if s0 := e0.Solver[kind]; s0 != nil {
			solves, iters = s0.Solves, s0.Iterations
		}
		out["solver."+kind+".solves"] = s1.Solves - solves
		out["solver."+kind+".iterations"] = s1.Iterations - iters
	}
	return out
}

// newCounts folds one or more replays into a block. exact names the
// counts that repeat exactly; nil marks all of them exact.
func newCounts(workload string, replays []map[string]uint64, exact map[string]bool) *countsBlock {
	c := &countsBlock{Workload: workload, GOMAXPROCS: runtime.GOMAXPROCS(0), Replays: len(replays), Counts: map[string]countEntry{}}
	var names []string
	for name := range replays[0] {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		e := countEntry{Value: replays[0][name], Min: replays[0][name], Max: replays[0][name], Exact: exact == nil || exact[name]}
		for _, r := range replays[1:] {
			e.Min, e.Max = min(e.Min, r[name]), max(e.Max, r[name])
		}
		c.Counts[name] = e
	}
	return c
}

// replayWorld starts a fresh deployment for a replay.
func replayWorld(seed uint64, dir string, prewarm func(*world) error) (*world, error) {
	d, err := newDeployment(dir)
	if err != nil {
		return nil, err
	}
	w := newWorld(d, seed, nil)
	if err := prewarm(w); err != nil {
		w.close()
		return nil, err
	}
	return w, nil
}

func replayPlanCold(seed uint64, dir string) (*countsBlock, error) {
	w, err := replayWorld(seed, dir, prewarmPlan)
	if err != nil {
		return nil, err
	}
	defer w.close()
	var errs []error
	before := w.d.snapshot()
	for i := 0; i < planReplayRequests; i++ {
		req := w.plans.next()
		r, err := w.post(w.d.routerURL+"/v1/plan", mustJSON(req), "")
		if err == nil {
			err = checkPlan(req, r, "backend")
		}
		errs = append(errs, err)
	}
	c := newCounts("plan_cold", []map[string]uint64{countsBetween(before, w.d.snapshot())}, nil)
	c.Counts["plans"] = countEntry{Value: planReplayRequests, Min: planReplayRequests, Max: planReplayRequests, Exact: true}
	c.record(errs)
	if got := c.get("engine.misses"); got != planReplayRequests {
		c.fail(fmt.Errorf("plan_cold replay: engines computed %d plans for %d requests", got, planReplayRequests))
	}
	return c, nil
}

func (c *countsBlock) record(errs []error) {
	for _, err := range errs {
		c.attempted++
		if err != nil {
			c.fail(err)
		}
	}
}

func replayServeHot(seed uint64, dir string) (*countsBlock, error) {
	w, err := replayWorld(seed, dir, prewarmHot)
	if err != nil {
		return nil, err
	}
	defer w.close()
	var errs []error
	before := w.d.snapshot()
	pick := newHotPicker(seed, 0)
	for n := 0; n < hotReplayRequests; n++ {
		_, _, err := w.hit(pick.next(), n)
		errs = append(errs, err)
	}
	c := newCounts("serve_hot", []map[string]uint64{countsBetween(before, w.d.snapshot())}, nil)
	c.record(errs)
	if got := c.get("engine.misses"); got != 0 {
		c.fail(fmt.Errorf("serve_hot replay: engines recomputed %d results", got))
	}
	return c, nil
}

// waitJob polls a job's result through the router until it finishes.
func (w *world) waitJob(id string, timeout time.Duration) (*jobRef, error) {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		r, err := w.do(http.MethodGet, w.d.routerURL+"/v1/jobs/"+url.PathEscape(id)+"/result", nil, "")
		if err != nil {
			return nil, err
		}
		switch r.status {
		case http.StatusAccepted:
			time.Sleep(20 * time.Millisecond)
			continue
		case http.StatusOK:
			var ref jobRef
			if err := json.Unmarshal(r.body, &ref); err != nil {
				return nil, err
			}
			return &ref, nil
		default:
			return nil, fmt.Errorf("job %s: status %d: %.200s", id, r.status, r.body)
		}
	}
	return nil, fmt.Errorf("job %s: not done after %v", id, timeout)
}

// checkBatchJob checks a finished async batch job: it is done, its
// progress accounts for every cell, and its payload passes the same
// checks as a sync answer.
func checkBatchJob(job batchJob, ref *jobRef) (cached uint64, err error) {
	if ref.State != string(service.StateDone) {
		return 0, fmt.Errorf("%s job ended %s: %s", job.req.Kind(), ref.State, ref.Error)
	}
	if ref.Progress == nil || ref.Progress.DoneCells != ref.Progress.TotalCells || ref.Progress.TotalCells != job.cells {
		return 0, fmt.Errorf("%s job progress %+v, want %d of %d cells done", job.req.Kind(), ref.Progress, job.cells, job.cells)
	}
	if err := checkBatch(job, &reply{status: http.StatusOK, body: ref.Result}); err != nil {
		return 0, err
	}
	var c struct {
		CachedCells uint64 `json:"cached_cells"`
	}
	err = json.Unmarshal(ref.Result, &c)
	return c.CachedCells, err
}

func replayBatch(seed uint64, dir string) (*countsBlock, error) {
	var replays []map[string]uint64
	var errs []error
	for i := 0; i < batchReplays; i++ {
		w, err := replayWorld(seed, filepath.Join(dir, fmt.Sprintf("r%d", i)), prewarmPlan)
		if err != nil {
			return nil, err
		}
		before := w.d.snapshot()
		var cells, cached uint64
		for j := 0; j < batchReplayJobs; j++ {
			job := w.batches.next()
			cells += uint64(job.cells)
			ref, err := w.submitJob(job.req, "")
			if err == nil {
				ref, err = w.waitJob(ref.ID, time.Minute)
			}
			if err == nil {
				var c uint64
				c, err = checkBatchJob(job, ref)
				cached += c
			}
			errs = append(errs, err)
		}
		counts := countsBetween(before, w.d.snapshot())
		counts["cells"], counts["cells_cached"] = cells, cached
		replays = append(replays, counts)
		if err := w.close(); err != nil {
			return nil, err
		}
	}
	c := newCounts("batch_study", replays, map[string]bool{"cells": true, "engine.jobs_done": true})
	c.record(errs)
	if c.Counts["engine.jobs_done"].Min == 0 {
		c.fail(fmt.Errorf("batch_study replay finished no jobs"))
	}
	return c, nil
}

func replayStream(seed uint64, dir string) (*countsBlock, error) {
	w, err := replayWorld(seed, dir, prewarmPlan)
	if err != nil {
		return nil, err
	}
	defer w.close()
	before := w.d.snapshot()
	req := w.streams.next()
	var gaps, first samples
	n, err := w.runStream(req, &gaps, &first)
	c := newCounts("stream_cosim", []map[string]uint64{countsBetween(before, w.d.snapshot())}, nil)
	c.record([]error{err})
	if got := c.get("stream.intervals"); got != uint64(n) || n != req.Intervals {
		c.fail(fmt.Errorf("stream_cosim replay: %d intervals solved, %d streamed, want %d", got, n, req.Intervals))
	}
	return c, nil
}

// ratio returns num / (num + den) over the first replay, 0 when both
// are 0.
func (c *countsBlock) ratio(num, den string) float64 {
	n, d := float64(c.get(num)), float64(c.get(num)+c.get(den))
	if d == 0 {
		return 0
	}
	return n / d
}
