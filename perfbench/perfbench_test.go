package main

import (
	"encoding/json"
	"math"
	"net/http"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"

	"waterimm/internal/api"
)

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		q    float64
		minN int
	}{{0.5, 20}, {0.75, 40}, {0.9, 100}, {0.99, 1000}} {
		if got := minSamplesFor(c.q); got != c.minN {
			t.Errorf("minSamplesFor(%g) = %d, want %d", c.q, got, c.minN)
		}
		var s samples
		for i := 1; i < c.minN; i++ {
			s.add(float64(i))
		}
		if _, ok := s.percentile(c.q); ok {
			t.Errorf("p%g reported with %d samples", c.q*100, s.n())
		}
		s.add(float64(c.minN))
		if _, ok := s.percentile(c.q); !ok {
			t.Errorf("p%g withheld with %d samples", c.q*100, s.n())
		}
	}

	var s samples
	for i := 1; i <= 20; i++ {
		s.add(float64(i))
	}
	if v, _ := s.percentile(0.5); v != 10.5 {
		t.Errorf("p50 of 1..20 = %v, want 10.5", v)
	}
	if v, _ := s.percentile(0.75); v != 15.25 {
		t.Errorf("p75 of 1..20 = %v, want 15.25", v)
	}
	// Failures are never dropped: eleven failures out of twenty push
	// the median onto a failed operation.
	var f samples
	for i := 0; i < 9; i++ {
		f.add(1)
	}
	for i := 0; i < 11; i++ {
		f.fail()
	}
	if v, _ := f.percentile(0.5); !math.IsInf(v, 1) {
		t.Errorf("p50 with 11 of 20 failed = %v, want +Inf", v)
	}
}

func keysOf(reqs []api.Request) []string {
	out := make([]string, len(reqs))
	for i, r := range reqs {
		out[i] = r.CacheKey()
	}
	return out
}

// sequences draws n requests from every generator for one seed.
func sequences(seed uint64, n int) map[string][]string {
	plans, batches, streams := newPlanGen(seed), newBatchGen(seed), newStreamGen(seed)
	var p, b, s, h []api.Request
	for i := 0; i < n; i++ {
		p = append(p, plans.next())
		b = append(b, batches.next().req)
		s = append(s, streams.next())
	}
	for _, r := range hotKeys(seed) {
		h = append(h, r)
	}
	pick := newHotPicker(seed, 0)
	var zipf []string
	for i := 0; i < n; i++ {
		zipf = append(zipf, h[pick.next()].CacheKey())
	}
	return map[string][]string{
		"plan": keysOf(p), "batch": keysOf(b), "stream": keysOf(s), "hot": keysOf(h), "zipf": zipf,
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	a, b, c := sequences(7, 60), sequences(7, 60), sequences(8, 60)
	for name := range a {
		if !reflect.DeepEqual(a[name], b[name]) {
			t.Errorf("%s: same seed gave different requests", name)
		}
		if reflect.DeepEqual(a[name], c[name]) {
			t.Errorf("%s: seeds 7 and 8 gave the same requests", name)
		}
	}
}

func TestGeneratedRequestsAreValidAndDistinct(t *testing.T) {
	g := newPlanGen(3)
	seen := map[string]bool{}
	classes := map[int]int{}
	for i := 0; i < 200; i++ {
		r := g.next()
		classes[r.GridNX]++
		c := *r
		c.Normalize()
		if err := c.Validate(); err != nil {
			t.Fatalf("plan %d: %v", i, err)
		}
		if seen[r.CacheKey()] {
			t.Fatalf("plan %d repeats an earlier key", i)
		}
		seen[r.CacheKey()] = true
	}
	// Ten full blocks hold exactly ten times each grid quota.
	for i, grid := range gridClasses {
		if classes[grid] != 10*planGridQuota[i] {
			t.Errorf("grid %d drawn %d times in 200 requests, want %d", grid, classes[grid], 10*planGridQuota[i])
		}
	}

	bg := newBatchGen(3)
	for i := 0; i < 30; i++ {
		job := bg.next()
		job.req.Normalize()
		if err := job.req.Validate(); err != nil {
			t.Fatalf("batch job %d (%s): %v", i, job.req.Kind(), err)
		}
		if mcr, ok := job.req.(*api.MonteCarloRequest); ok && job.cells != mcr.TotalCells() {
			t.Errorf("montecarlo job counts %d cells, request expands to %d", job.cells, mcr.TotalCells())
		}
	}
	sg := newStreamGen(3)
	for i := 0; i < 20; i++ {
		r := sg.next()
		r.Normalize()
		if err := r.Validate(); err != nil {
			t.Fatalf("stream %d: %v", i, err)
		}
	}
	for i, r := range hotKeys(3) {
		c := *r
		c.Normalize()
		if err := c.Validate(); err != nil {
			t.Fatalf("hot key %d: %v", i, err)
		}
	}
}

func planReply(t *testing.T, resp api.PlanResponse, xcache string) *reply {
	t.Helper()
	h := http.Header{}
	if xcache != "" {
		h.Set("X-Cache", xcache)
	}
	return &reply{status: http.StatusOK, header: h, body: mustJSON(resp)}
}

func TestPlanCheck(t *testing.T) {
	req := &api.PlanRequest{Chips: 2, ThresholdC: 80}
	good := api.PlanResponse{Feasible: true, FrequencyGHz: 2, VoltageV: 0.9, PeakC: 79, DiePeaksC: []float64{78, 79}}
	if err := checkPlan(req, planReply(t, good, "backend"), "backend"); err != nil {
		t.Fatalf("good plan rejected: %v", err)
	}
	hot := good
	hot.PeakC = 81
	wrongDies := good
	wrongDies.DiePeaksC = []float64{79}
	infeasibleWithStep := api.PlanResponse{FrequencyGHz: 1}
	for name, r := range map[string]*reply{
		"over threshold":     planReply(t, hot, "backend"),
		"die count":          planReply(t, wrongDies, "backend"),
		"infeasible w/ step": planReply(t, infeasibleWithStep, "backend"),
		"served from edge":   planReply(t, good, "edge"),
		"status":             {status: http.StatusServiceUnavailable, header: http.Header{}, body: []byte("{}")},
	} {
		if err := checkPlan(req, r, "backend"); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestHitCheck(t *testing.T) {
	ref := []byte(`{"feasible":true}`)
	edge := &reply{status: http.StatusOK, header: http.Header{"X-Cache": {"edge"}}, body: ref}
	if err := checkHit(edge, ref, true); err != nil {
		t.Fatalf("edge hit rejected: %v", err)
	}
	if err := checkHit(&reply{status: http.StatusOK, header: http.Header{"X-Cache": {"backend"}}, body: ref}, ref, true); err == nil {
		t.Error("edge request answered by a backend accepted")
	}
	if err := checkHit(&reply{status: http.StatusOK, header: http.Header{}, body: []byte(`{"feasible": true}`)}, ref, false); err == nil {
		t.Error("body that is not byte-identical accepted")
	}
}

func TestBatchCheck(t *testing.T) {
	job := newBatchGen(1).next()
	mcr := job.req.(*api.MonteCarloRequest)
	resp := api.MonteCarloResponse{Samples: mcr.Samples, Params: mcr.ParamNames(), TotalCells: mcr.TotalCells()}
	if err := checkBatch(job, &reply{status: http.StatusOK, body: mustJSON(resp)}); err != nil {
		t.Fatalf("good montecarlo answer rejected: %v", err)
	}
	resp.TotalCells--
	if err := checkBatch(job, &reply{status: http.StatusOK, body: mustJSON(resp)}); err == nil {
		t.Error("montecarlo answer with the wrong cell count accepted")
	}
	ref := &jobRef{State: "done", Progress: &api.SweepProgress{TotalCells: job.cells, DoneCells: job.cells - 1}, Result: mustJSON(resp)}
	if _, err := checkBatchJob(job, ref); err == nil {
		t.Error("job with unfinished cells accepted")
	}
}

func sse(name string, id int, v any) sseEvent {
	return sseEvent{name: name, id: id, data: mustJSON(v)}
}

func TestStreamCheck(t *testing.T) {
	done := sse("done", 0, map[string]any{"state": "done", "result": api.CosimStreamResponse{Intervals: 3}})
	feed := func(seqs []int, end bool) error {
		c := &streamCheck{want: 3}
		for _, s := range seqs {
			if err := c.event(sse("interval", s, api.CosimStreamInterval{Seq: s})); err != nil {
				return err
			}
		}
		if end {
			if err := c.event(done); err != nil {
				return err
			}
		}
		return c.finish()
	}
	if err := feed([]int{1, 2, 3}, true); err != nil {
		t.Fatalf("good feed rejected: %v", err)
	}
	for name, err := range map[string]error{
		"gap":     feed([]int{1, 3}, true),
		"repeat":  feed([]int{1, 2, 2, 3}, true),
		"no done": feed([]int{1, 2, 3}, false),
		"short":   feed([]int{1, 2}, true),
	} {
		if err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	var got []string
	body := "event: interval\nid: 1\ndata: {\"seq\":1}\n\nevent: done\ndata: {}\n\n"
	if err := readSSE(strings.NewReader(body), func(ev sseEvent) error {
		got = append(got, ev.name)
		return nil
	}); err != nil || !reflect.DeepEqual(got, []string{"interval", "done"}) {
		t.Errorf("readSSE = %v, %v", got, err)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},
		{ID: 4, Parent: 2, Name: "c", Start: 15, End: 20},
	}
	if got, want := selfTimes(spans), []int64{50, 25, 30, 5}; !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metrics the benchmark
// prints in step.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not found:", err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct{ Name string } `json:"end_to_end"`
		PerLayer  []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(v []struct{ Name string }) []string {
		var out []string
		for _, e := range v {
			out = append(out, e.Name)
		}
		sort.Strings(out)
		return out
	}
	var wls []string
	for _, w := range workloads {
		wls = append(wls, w.name)
	}
	sort.Strings(wls)
	e2e := append([]string(nil), endToEndNames...)
	sort.Strings(e2e)
	for _, c := range []struct {
		what      string
		got, want []string
	}{
		{"workloads", names(spec.Workloads), wls},
		{"end_to_end", names(spec.EndToEnd), e2e},
		{"per_layer", names(spec.PerLayer), perLayerNames()},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("BENCHMARK.json %s = %v, benchmark prints %v", c.what, c.got, c.want)
		}
	}
}
