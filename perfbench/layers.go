package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"waterimm/internal/api"
	"waterimm/internal/core"
	"waterimm/internal/cosim"
	"waterimm/internal/floorplan"
	"waterimm/internal/httpapi"
	"waterimm/internal/material"
	"waterimm/internal/mcpat"
	"waterimm/internal/power"
	"waterimm/internal/rcache"
	"waterimm/internal/service"
	"waterimm/internal/stack"
	"waterimm/internal/thermal"
)

// The layer probes run after the timed phases of a traced run. Each
// one calls a layer's public functions on a sample of the same seeded
// inputs the workloads use and wraps every call in a span; the
// per-layer metrics are medians of those spans. The probes are the
// same for every workload, so every traced run reports every layer.

// probe is the state the layer probes share.
type probe struct {
	tr   *tracer
	seed uint64
	out  map[string]metric
	root int
}

func (p *probe) set(name string, v float64, unit string) { p.out[name] = metric{v, unit} }

// medianMS is the median duration of the named spans in milliseconds.
func (p *probe) medianMS(span string) float64 { return median(p.tr.durations(span)) }

// repeat runs f n times, each inside a span of the given name.
func (p *probe) repeat(name string, n int, f func(i int) error) error {
	for i := 0; i < n; i++ {
		if err := p.tr.timeSpan(name, p.root, "", func() error { return f(i) }); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	return nil
}

// runProbes measures every layer and returns the per-layer timings.
func runProbes(tr *tracer, seed uint64, dir string) (map[string]metric, error) {
	p := &probe{tr: tr, seed: seed, out: map[string]metric{}}
	p.root = tr.begin("probes", 0, "")
	defer tr.end(p.root)
	steps := []struct {
		name string
		f    func(dir string) error
	}{
		{"cache", p.cacheLayers},
		{"classes", p.gridClasses},
		{"service", p.serviceLayers},
		{"stream", p.streamLayers},
		{"g256", p.largeSolve},
	}
	for _, s := range steps {
		if err := s.f(filepath.Join(dir, s.name)); err != nil {
			return nil, err
		}
	}
	return p.out, nil
}

// cacheLayers times the read path of a cached plan one layer at a
// time: request decoding and keying (api), the engine's cache lookup
// (service), the backend HTTP handler (httpapi), the router's edge
// hit (router) and the edge store (rcache), with no socket involved.
func (p *probe) cacheLayers(dir string) error {
	d, err := newDeployment(dir)
	if err != nil {
		return err
	}
	w := newWorld(d, p.seed, nil)
	defer w.close()
	if err := prewarmHot(w); err != nil {
		return err
	}
	envelopes := make([][]byte, len(w.hot))
	for i, r := range w.hot {
		env, err := api.NewJobEnvelope(r)
		if err != nil {
			return err
		}
		envelopes[i] = mustJSON(env)
	}
	k := len(w.hot)
	if err := p.repeat("api.key", 2000, func(i int) error {
		r := *w.hot[i%k]
		r.Normalize()
		if err := r.Validate(); err != nil {
			return err
		}
		_ = r.CacheKey()
		return nil
	}); err != nil {
		return err
	}
	if err := p.repeat("api.decode", 2000, func(i int) error {
		_, err := api.DecodeJobRequest(envelopes[i%k])
		return err
	}); err != nil {
		return err
	}
	handlers := make([]http.Handler, len(d.engines))
	for i, e := range d.engines {
		handlers[i] = httpapi.NewHandler(e, httpapi.Options{SyncTimeout: syncTimeout})
	}
	serve := func(h http.Handler, i int) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/plan", bytes.NewReader(w.hotBody[i%k])))
		return rec
	}
	if err := p.repeat("httpapi.hit", 1000, func(i int) error {
		rec := serve(handlers[w.hotOwner[i%k]], i)
		if !bytes.Equal(rec.Body.Bytes(), w.directRef[i%k]) {
			return fmt.Errorf("status %d, body differs from the cached answer", rec.Code)
		}
		return nil
	}); err != nil {
		return err
	}
	if err := p.repeat("service.hit", 1000, func(i int) error {
		r := *w.hot[i%k]
		in, err := d.engines[w.hotOwner[i%k]].Submit(&r)
		if err == nil && !in.CacheHit {
			err = fmt.Errorf("submit of a cached request was not a cache hit")
		}
		return err
	}); err != nil {
		return err
	}
	rh := d.rt.Handler()
	if err := p.repeat("router.edge_hit", 1000, func(i int) error {
		rec := serve(rh, i)
		if rec.Header().Get("X-Cache") != "edge" || !bytes.Equal(rec.Body.Bytes(), w.edgeRef[i%k]) {
			return fmt.Errorf("status %d, X-Cache %q: not the edge answer", rec.Code, rec.Header().Get("X-Cache"))
		}
		return nil
	}); err != nil {
		return err
	}
	keys := make([]string, k)
	for i, r := range w.hot {
		keys[i] = r.CacheKey()
	}
	if err := p.repeat("rcache.get", 1000, func(i int) error {
		if _, _, ok := d.edge.Get(keys[i%k]); !ok {
			return fmt.Errorf("edge entry %s missing", keys[i%k])
		}
		return nil
	}); err != nil {
		return err
	}
	store, err := rcache.Open(filepath.Join(dir, "put"), cacheMaxBytes, api.CacheGeneration)
	if err != nil {
		return err
	}
	if err := p.repeat("rcache.put", 300, func(i int) error {
		return store.Put(keys[i%k], "plan", w.edgeRef[i%k])
	}); err != nil {
		return err
	}
	for _, m := range []struct{ metric, span string }{
		{"api.key_us", "api.key"}, {"api.decode_us", "api.decode"},
		{"httpapi.hit_us", "httpapi.hit"}, {"service.hit_us", "service.hit"},
		{"router.edge_hit_us", "router.edge_hit"},
		{"rcache.get_us", "rcache.get"}, {"rcache.put_us", "rcache.put"},
	} {
		p.set(m.metric, 1e3*p.medianMS(m.span), "us")
	}
	return nil
}

// probeStack returns the stack configuration of a plan request's chip,
// coolant and grid at the given depth, with every die at the chip's top
// VFS step.
func probeStack(r *api.PlanRequest, chips int) (stack.Config, error) {
	chip, err := power.ModelByName(r.Chip)
	if err != nil {
		return stack.Config{}, err
	}
	coolant, err := material.ByName(r.Coolant)
	if err != nil {
		return stack.Config{}, err
	}
	steps := chip.Steps()
	die, err := mcpat.ChipAt(chip, steps[len(steps)-1], chip.RefTempC)
	if err != nil {
		return stack.Config{}, err
	}
	dies := make([]*floorplan.Floorplan, chips)
	for i := range dies {
		dies[i] = die
	}
	params := stack.DefaultParams()
	params.GridNX, params.GridNY = r.GridNX, r.GridNY
	return stack.Config{Params: params, Coolant: coolant, Dies: dies}, nil
}

// probeModel builds the thermal model of probeStack's configuration.
func probeModel(r *api.PlanRequest, chips int) (*thermal.Model, error) {
	cfg, err := probeStack(r, chips)
	if err != nil {
		return nil, err
	}
	return stack.Build(cfg)
}

// classChips is the stack depth of the per-grid-class probes.
const classChips = 4

// classRequests returns, per grid class, the first plan_cold request of
// that class in the seeded sequence, at classChips chips.
func classRequests(seed uint64) map[int]*api.PlanRequest {
	g := newPlanGen(seed)
	out := map[int]*api.PlanRequest{}
	for len(out) < len(gridClasses) {
		r := g.next()
		if out[r.GridNX] == nil {
			r.Chips = classChips
			out[r.GridNX] = r
		}
	}
	return out
}

// gridClasses times stack building, assembly (full and structural),
// multigrid set-up, the CG solve and the planner's VFS search per grid
// class.
func (p *probe) gridClasses(string) error {
	reqs := classRequests(p.seed)
	var solves, plans int
	for _, g := range gridClasses {
		r := reqs[g]
		cls := fmt.Sprintf(".g%d", g)
		cfg, err := probeStack(r, classChips)
		if err != nil {
			return err
		}
		var model *thermal.Model
		if err := p.repeat("stack.build"+cls, 3, func(int) error {
			model, err = stack.Build(cfg)
			return err
		}); err != nil {
			return err
		}
		p.set("stack.build_ms"+cls, p.medianMS("stack.build"+cls), "ms")

		if g == 64 || g == 128 {
			if err := p.repeat("thermal.assemble"+cls, 3, func(int) error {
				_, err := thermal.Assemble(model)
				return err
			}); err != nil {
				return err
			}
			p.set("thermal.assemble_ms"+cls, p.medianMS("thermal.assemble"+cls), "ms")
		}
		if g == 128 {
			// The same model just assembled without error above.
			allocs := testing.AllocsPerRun(1, func() { _, _ = thermal.Assemble(model) })
			p.set("thermal.assemble_allocs"+cls, allocs, "count")
			sys, err := thermal.Assemble(model)
			if err != nil {
				return err
			}
			st, err := sys.Structure()
			if err != nil {
				return err
			}
			if err := p.repeat("thermal.structural"+cls, 3, func(int) error {
				_, err := st.Assemble(model)
				return err
			}); err != nil {
				return err
			}
			p.set("thermal.structural_ms"+cls, p.medianMS("thermal.structural"+cls), "ms")
		}

		var iters int
		for rep := 0; rep < 2; rep++ {
			sys, err := thermal.Assemble(model)
			if err != nil {
				return err
			}
			var mg *thermal.Multigrid
			if err := p.tr.timeSpan("thermal.mg_setup"+cls, p.root, "", func() error {
				mg, err = sys.Multigrid()
				return err
			}); err != nil {
				return err
			}
			var st thermal.SolveStats
			if err := p.tr.timeSpan("thermal.cg"+cls, p.root, "", func() error {
				_, err := sys.SolveSteady(thermal.SolveOptions{Precond: mg, Stats: &st})
				return err
			}); err != nil {
				return err
			}
			iters = st.Iterations
		}
		p.set("thermal.mg_setup_ms"+cls, p.medianMS("thermal.mg_setup"+cls), "ms")
		p.set("thermal.cg_ms"+cls, p.medianMS("thermal.cg"+cls), "ms")
		p.set("thermal.cg_iters"+cls, float64(iters), "count")

		chip, _ := power.ModelByName(r.Chip)
		coolant, _ := material.ByName(r.Coolant)
		if err := p.repeat("core.plan"+cls, 2, func(int) error {
			pl := core.NewPlanner()
			pl.ThresholdC, pl.Flip = r.ThresholdC, r.Flip
			pl.Params.GridNX, pl.Params.GridNY = r.GridNX, r.GridNY
			pl.OnSolve = func(thermal.SolveStats) { solves++ }
			plans++
			_, _, _, err := pl.MaxFrequencyEvalCtx(context.Background(), chip, classChips, coolant, 0)
			return err
		}); err != nil {
			return err
		}
		p.set("core.plan_ms"+cls, p.medianMS("core.plan"+cls), "ms")
	}
	p.set("core.solves_per_plan", float64(solves)/float64(plans), "count")
	return nil
}

// serviceProbePlans is how many seeded small-grid plans the service
// probe runs through a bare engine.
const serviceProbePlans = 4

// serviceLayers times the engine on its own: queue wait and run time
// of seeded cold plans, and the cell rate of one seeded job of each
// batch kind.
func (p *probe) serviceLayers(string) error {
	e := service.New(service.Config{})
	defer e.Close()
	g := newPlanGen(p.seed)
	for n := 0; n < serviceProbePlans; {
		r := g.next()
		if r.GridNX > 64 {
			continue
		}
		n++
		if err := p.tr.timeSpan("service.plan", p.root, "", func() error {
			_, err := submitWait(e, r)
			return err
		}); err != nil {
			return err
		}
	}
	m := e.Metrics()
	p.set("service.run_plan_ms", m.LatencyS["run.plan"].MeanS()*1e3, "ms")
	p.set("service.queue_ms", m.LatencyS["queue"].MeanS()*1e3, "ms")

	bg := newBatchGen(p.seed)
	for i := 0; i < 3; i++ {
		job := bg.next()
		t0 := time.Now()
		if err := p.tr.timeSpan("service."+job.req.Kind(), p.root, "", func() error {
			in, err := submitWait(e, job.req)
			if err == nil && (in.Progress == nil || in.Progress.DoneCells != job.cells) {
				err = fmt.Errorf("%s job finished %+v of %d cells", job.req.Kind(), in.Progress, job.cells)
			}
			return err
		}); err != nil {
			return err
		}
		kind := map[string]string{"montecarlo": "mc", "sweep": "sweep", "audit": "audit"}[job.req.Kind()]
		p.set("service."+kind+"_cells_per_s", float64(job.cells)/time.Since(t0).Seconds(), "1/s")
	}
	return nil
}

func submitWait(e *service.Engine, r api.Request) (service.JobInfo, error) {
	in, err := e.Submit(r)
	if err != nil {
		return in, err
	}
	in, err = e.Wait(context.Background(), in.ID)
	if err == nil && in.State != service.StateDone {
		err = fmt.Errorf("job %s ended %s: %s", in.ID, in.State, in.Error)
	}
	return in, err
}

// streamConfig mirrors how the engine turns a cosimstream request into
// an interval engine.
func streamConfig(r *api.CosimStreamRequest) (cosim.StreamConfig, error) {
	r.Normalize()
	chip, err := power.ModelByName(r.Chip)
	if err != nil {
		return cosim.StreamConfig{}, err
	}
	coolant, err := material.ByName(r.Coolant)
	if err != nil {
		return cosim.StreamConfig{}, err
	}
	params := stack.DefaultParams()
	params.GridNX, params.GridNY = r.GridNX, r.GridNY
	cfg := cosim.StreamConfig{
		Chip: chip, Chips: r.Chips, Coolant: coolant, Params: params,
		FHz: r.GHz * 1e9, IntervalS: r.IntervalS, Intervals: r.Intervals, SubSteps: r.SubSteps,
	}
	for _, ph := range r.Trace {
		cfg.Phases = append(cfg.Phases, cosim.StreamPhase{DurationS: ph.DurationS, Utilisation: ph.Utilisation})
	}
	if r.DTMSetpointC > 0 {
		cfg.DVFS = &cosim.DVFSPolicy{SetpointC: r.DTMSetpointC, HysteresisC: r.DTMHysteresisC}
	}
	return cfg, nil
}

// streamLayers times the streaming path below the engine: stream
// construction plus the first interval, later intervals, checkpoint
// snapshots and the transient stepper's backward-Euler step.
func (p *probe) streamLayers(string) error {
	ctx := context.Background()
	r := newStreamGen(p.seed).next()
	cfg, err := streamConfig(r)
	if err != nil {
		return err
	}
	for rep := 0; rep < 3; rep++ {
		if err := p.tr.timeSpan("cosim.first", p.root, "", func() error {
			st, err := cosim.NewStream(cfg)
			if err == nil {
				_, err = st.Next(ctx)
			}
			return err
		}); err != nil {
			return err
		}
	}
	st, err := cosim.NewStream(cfg)
	if err != nil {
		return err
	}
	if err := p.repeat("cosim.next", 60, func(int) error {
		_, err := st.Next(ctx)
		return err
	}); err != nil {
		return err
	}
	if err := p.repeat("cosim.checkpoint", 10, func(int) error {
		_, err := json.Marshal(st.Checkpoint())
		return err
	}); err != nil {
		return err
	}
	model, err := probeModel(&api.PlanRequest{Chip: r.Chip, Coolant: r.Coolant, GridNX: r.GridNX, GridNY: r.GridNY}, r.Chips)
	if err != nil {
		return err
	}
	sys, err := thermal.Assemble(model)
	if err != nil {
		return err
	}
	stepper, err := thermal.NewStepper(sys, r.IntervalS/float64(r.SubSteps))
	if err != nil {
		return err
	}
	if err := p.repeat("thermal.step", 60, func(int) error { return stepper.Step(ctx) }); err != nil {
		return err
	}
	p.set("cosim.first_ms", p.medianMS("cosim.first"), "ms")
	p.set("cosim.next_ms", p.medianMS("cosim.next"), "ms")
	p.set("cosim.checkpoint_ms", p.medianMS("cosim.checkpoint"), "ms")
	p.set("thermal.step_ms", p.medianMS("thermal.step"), "ms")
	return nil
}

// largeSolve counts the CG iterations of one default-path steady solve
// at 256²×8, the largest grid the API accepts.
func (p *probe) largeSolve(string) error {
	model, err := probeModel(&api.PlanRequest{Chip: "low-power", Coolant: "water", GridNX: 256, GridNY: 256}, 8)
	if err != nil {
		return err
	}
	sys, err := thermal.Assemble(model)
	if err != nil {
		return err
	}
	var st thermal.SolveStats
	if err := p.tr.timeSpan("thermal.solve.g256x8", p.root, "", func() error {
		prec, err := sys.SelectPreconditioner(thermal.PrecondAuto)
		if err != nil {
			return err
		}
		_, err = sys.SolveSteady(thermal.SolveOptions{Precond: prec, Stats: &st})
		return err
	}); err != nil {
		return err
	}
	p.set("thermal.cg_iters.g256x8", float64(st.Iterations), "count")
	return nil
}
