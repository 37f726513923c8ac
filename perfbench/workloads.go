package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"waterimm/internal/api"
	"waterimm/internal/httpapi"
	"waterimm/internal/service"
)

// world is one fresh deployment plus the client state a workload
// keeps across its set-up and timed phase.
type world struct {
	d      *deployment
	client *http.Client
	seed   uint64
	tr     *tracer // nil in untraced runs

	plans   *planGen
	batches *batchGen
	streams *streamGen

	// serve_hot: the pre-warmed keys, their request bodies, the
	// backend that owns each, and the reference bodies each path
	// returned during set-up.
	hot       []*api.PlanRequest
	hotBody   [][]byte
	hotOwner  []int
	edgeRef   [][]byte
	directRef [][]byte
}

func newWorld(d *deployment, seed uint64, tr *tracer) *world {
	return &world{
		d: d, seed: seed, tr: tr,
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 4,
			DisableCompression:  true,
		}},
		plans:   newPlanGen(seed),
		batches: newBatchGen(seed),
		streams: newStreamGen(seed),
	}
}

func (w *world) close() error {
	w.client.CloseIdleConnections()
	return w.d.close()
}

// reply is one HTTP exchange as the client saw it.
type reply struct {
	status int
	header http.Header
	body   []byte
}

func (w *world) do(method, u string, body []byte, reqID string) (*reply, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, u, rd)
	if err != nil {
		return nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if reqID != "" {
		req.Header.Set(httpapi.RequestIDHeader, reqID)
	}
	resp, err := w.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	return &reply{status: resp.StatusCode, header: resp.Header, body: b}, nil
}

func (w *world) post(u string, body []byte, reqID string) (*reply, error) {
	return w.do(http.MethodPost, u, body, reqID)
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return b
}

func decodeStrict(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

func msSince(t time.Time) float64 { return float64(time.Since(t).Nanoseconds()) / 1e6 }

// phase is the outcome of one timed phase.
type phase struct {
	mu        sync.Mutex
	attempted int
	failed    int
	ops       float64 // completed units of work: plans, hits, cells or intervals
	wall      time.Duration
	lat       samples             // the workload's headline latency
	direct    samples             // serve_hot: hits sent straight to a backend
	first     samples             // stream_cosim: submit → first interval
	byKind    map[string]*samples // latency per grid class (plan_cold) or job kind (batch_study)
	errs      []string
}

// fail records a failed operation. Only the first few messages are
// kept; every failure is counted.
func (p *phase) fail(err error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.failed++
	if len(p.errs) < 10 {
		p.errs = append(p.errs, err.Error())
	}
}

// check records a failed post-phase check that is not tied to one
// operation.
func (p *phase) check(err error) {
	if err == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.errs = append(p.errs, err.Error())
}

func (p *phase) addKind(kind string, ms float64) {
	if p.byKind[kind] == nil {
		p.byKind[kind] = &samples{}
	}
	p.byKind[kind].add(ms)
}

func (p *phase) correct() bool { return p.failed == 0 && len(p.errs) == 0 }

// --- plan_cold ---

func prewarmPlan(w *world) error {
	// A 16² plan that no timed request can equal warms connections and
	// code paths.
	r, err := w.post(w.d.routerURL+"/v1/plan", []byte(`{"chip":"lp","chips":1,"grid_nx":16,"grid_ny":16}`), "")
	if err != nil {
		return err
	}
	if r.status != http.StatusOK {
		return fmt.Errorf("prewarm plan: status %d: %s", r.status, r.body)
	}
	return nil
}

func checkPlan(req *api.PlanRequest, r *reply, wantCache string) error {
	if r.status != http.StatusOK {
		return fmt.Errorf("plan: status %d: %.200s", r.status, r.body)
	}
	if got := r.header.Get("X-Cache"); got != wantCache {
		return fmt.Errorf("plan: X-Cache %q, want %q", got, wantCache)
	}
	var resp api.PlanResponse
	if err := decodeStrict(r.body, &resp); err != nil {
		return fmt.Errorf("plan: decode: %w", err)
	}
	return checkPlanResponse(req, &resp)
}

// checkPlanResponse checks a plan answer against its request: a
// feasible plan names a positive frequency, stays under the threshold
// and reports one finite peak per die; an infeasible one reports none.
func checkPlanResponse(req *api.PlanRequest, resp *api.PlanResponse) error {
	if !resp.Feasible {
		if resp.FrequencyGHz != 0 || len(resp.DiePeaksC) != 0 {
			return fmt.Errorf("plan: infeasible answer carries an operating point")
		}
		return nil
	}
	if resp.FrequencyGHz <= 0 || resp.VoltageV <= 0 {
		return fmt.Errorf("plan: feasible answer without an operating point")
	}
	if resp.PeakC > req.ThresholdC+1e-9 || resp.PeakC <= 0 {
		return fmt.Errorf("plan: peak %.3f °C outside (0, %.1f]", resp.PeakC, req.ThresholdC)
	}
	if len(resp.DiePeaksC) != req.Chips {
		return fmt.Errorf("plan: %d die peaks for %d chips", len(resp.DiePeaksC), req.Chips)
	}
	for _, t := range resp.DiePeaksC {
		if math.IsNaN(t) || math.IsInf(t, 0) || t > resp.PeakC+1e-9 {
			return fmt.Errorf("plan: die peak %v inconsistent with peak %v", t, resp.PeakC)
		}
	}
	return nil
}

// planBlockSeconds sizes plan_cold: it runs one block per this many
// seconds of the requested run length. Its requests differ in cost by
// up to 50×, so it runs a fixed amount of work rather than until a
// deadline; a deadline would make the number of blocks, and with it
// the mix and the live heap, depend on the machine's speed.
const planBlockSeconds = 6.5

func runPlanCold(w *world, dur time.Duration) *phase {
	p := &phase{byKind: map[string]*samples{}}
	before, rBefore := w.d.engineTotals(), w.d.rt.Metrics()
	start := time.Now()
	n := planBlock * max(1, int(dur.Seconds()/planBlockSeconds+0.5))
	for i := 0; i < n; i++ {
		req := w.plans.next()
		rid := w.tr.newReq("plan")
		sid := w.tr.begin("client.plan", 0, rid)
		t0 := time.Now()
		r, err := w.post(w.d.routerURL+"/v1/plan", mustJSON(req), rid)
		ms := msSince(t0)
		w.tr.end(sid)
		p.attempted++
		if err == nil {
			err = checkPlan(req, r, "backend")
		}
		if err != nil {
			p.fail(err)
			p.lat.fail()
			continue
		}
		p.lat.add(ms)
		p.addKind(fmt.Sprintf("g%d", req.GridNX), ms)
		p.ops++
	}
	p.wall = time.Since(start)
	after, rAfter := w.d.engineTotals(), w.d.rt.Metrics()
	if misses := after.CacheMisses - before.CacheMisses; misses != uint64(p.attempted) {
		p.check(fmt.Errorf("plan_cold: engines computed %d plans for %d requests", misses, p.attempted))
	}
	if hits := after.CacheHitsMem + after.CacheHitsDisk + after.DedupHits - before.CacheHitsMem - before.CacheHitsDisk - before.DedupHits; hits != 0 {
		p.check(fmt.Errorf("plan_cold: %d requests were answered from an engine cache", hits))
	}
	if hits := rAfter.EdgeCacheHits - rBefore.EdgeCacheHits; hits != 0 {
		p.check(fmt.Errorf("plan_cold: %d requests were answered from the edge cache", hits))
	}
	if hits := after.Assembly.Hits - before.Assembly.Hits; hits != 0 {
		p.check(fmt.Errorf("plan_cold: %d plans reused a pooled system instead of assembling their own", hits))
	}
	return p
}

// --- serve_hot ---

// prewarmHot computes every hot key through the router, then records
// the body each path returns for it: the edge tier's copy through the
// router and the owning backend's memory-cache copy directly.
func prewarmHot(w *world) error {
	if err := prewarmPlan(w); err != nil {
		return err
	}
	w.hot = hotKeys(w.seed)
	for _, req := range w.hot {
		body := mustJSON(req)
		r, err := w.post(w.d.routerURL+"/v1/plan", body, "")
		if err != nil {
			return err
		}
		if err := checkPlan(req, r, "backend"); err != nil {
			return fmt.Errorf("serve_hot set-up: %w", err)
		}
		owner, err := w.d.backendIndex(r.header.Get("X-Backend"))
		if err != nil {
			return err
		}
		edge, err := w.post(w.d.routerURL+"/v1/plan", body, "")
		if err != nil {
			return err
		}
		if err := checkPlan(req, edge, "edge"); err != nil {
			return fmt.Errorf("serve_hot set-up: %w", err)
		}
		direct, err := w.post(w.d.backends[owner]+"/v1/plan", body, "")
		if err != nil {
			return err
		}
		if err := checkPlan(req, direct, ""); err != nil {
			return fmt.Errorf("serve_hot set-up: %w", err)
		}
		w.hotBody = append(w.hotBody, body)
		w.hotOwner = append(w.hotOwner, owner)
		w.edgeRef = append(w.edgeRef, edge.body)
		w.directRef = append(w.directRef, direct.body)
	}
	return nil
}

// hotClients is the closed-loop client count of serve_hot: one per
// processor, so throughput is work the program completed rather than
// queueing.
func hotClients() int { return runtime.NumCPU() }

// hit sends one hot request: even-numbered requests of a client go
// through the router and must be edge hits, odd ones go straight to
// the owning backend. It returns the latency and which path was used.
func (w *world) hit(key, n int) (float64, bool, error) {
	edge := n%2 == 0
	u, ref, name := w.d.routerURL, w.edgeRef[key], "client.hit.edge"
	if !edge {
		u, ref, name = w.d.backends[w.hotOwner[key]], w.directRef[key], "client.hit.direct"
	}
	rid := w.tr.newReq("hit")
	sid := w.tr.begin(name, 0, rid)
	t0 := time.Now()
	r, err := w.post(u+"/v1/plan", w.hotBody[key], rid)
	ms := msSince(t0)
	w.tr.end(sid)
	if err != nil {
		return ms, edge, err
	}
	return ms, edge, checkHit(r, ref, edge)
}

func checkHit(r *reply, ref []byte, edge bool) error {
	if r.status != http.StatusOK {
		return fmt.Errorf("hit: status %d: %.200s", r.status, r.body)
	}
	if edge && r.header.Get("X-Cache") != "edge" {
		return fmt.Errorf("hit: router answered with X-Cache %q, want edge", r.header.Get("X-Cache"))
	}
	if !bytes.Equal(r.body, ref) {
		return fmt.Errorf("hit: body differs from the set-up response (%d vs %d bytes)", len(r.body), len(ref))
	}
	return nil
}

func runServeHot(w *world, dur time.Duration) *phase {
	p := &phase{}
	before, rBefore := w.d.engineTotals(), w.d.rt.Metrics()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < hotClients(); c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			pick := newHotPicker(w.seed, c)
			var edge, direct samples
			n := 0
			for ; time.Since(start) < dur; n++ {
				ms, viaEdge, err := w.hit(pick.next(), n)
				s := &direct
				if viaEdge {
					s = &edge
				}
				if err != nil {
					p.fail(err)
					s.fail()
					continue
				}
				s.add(ms)
			}
			p.mu.Lock()
			p.attempted += n
			p.lat.ms = append(p.lat.ms, edge.ms...)
			p.direct.ms = append(p.direct.ms, direct.ms...)
			p.mu.Unlock()
		}(c)
	}
	wg.Wait()
	p.wall = time.Since(start)
	p.ops = float64(p.attempted - p.failed)
	after, rAfter := w.d.engineTotals(), w.d.rt.Metrics()
	if misses := after.CacheMisses - before.CacheMisses; misses != 0 {
		p.check(fmt.Errorf("serve_hot: engines recomputed %d results", misses))
	}
	if misses := rAfter.EdgeCacheMisses - rBefore.EdgeCacheMisses; misses != 0 {
		p.check(fmt.Errorf("serve_hot: %d router requests missed the edge cache", misses))
	}
	return p
}

// --- batch_study ---

func checkBatch(job batchJob, r *reply) error {
	if r.status != http.StatusOK {
		return fmt.Errorf("%s: status %d: %.200s", job.path, r.status, r.body)
	}
	switch req := job.req.(type) {
	case *api.MonteCarloRequest:
		var resp api.MonteCarloResponse
		if err := decodeStrict(r.body, &resp); err != nil {
			return fmt.Errorf("montecarlo: decode: %w", err)
		}
		if want := req.Samples * (len(req.Params) + 2); resp.TotalCells != want || job.cells != want {
			return fmt.Errorf("montecarlo: %d cells, want N·(d+2) = %d", resp.TotalCells, want)
		}
		if resp.Samples != req.Samples || len(resp.Params) != len(req.Params) {
			return fmt.Errorf("montecarlo: answer is for %d samples over %d params", resp.Samples, len(resp.Params))
		}
	case *api.SweepRequest:
		var resp api.SweepResponse
		if err := decodeStrict(r.body, &resp); err != nil {
			return fmt.Errorf("sweep: decode: %w", err)
		}
		if resp.TotalCells != job.cells || len(resp.Cells) != job.cells {
			return fmt.Errorf("sweep: %d/%d cells, want %d", len(resp.Cells), resp.TotalCells, job.cells)
		}
		for _, c := range resp.Cells {
			if c.Plan == nil {
				return fmt.Errorf("sweep: cell %s has no plan", c.Key)
			}
			pr := &api.PlanRequest{Chips: c.Chips, ThresholdC: c.ThresholdC}
			if err := checkPlanResponse(pr, c.Plan); err != nil {
				return fmt.Errorf("sweep: %w", err)
			}
		}
	case *api.AuditRequest:
		var resp api.AuditResponse
		if err := decodeStrict(r.body, &resp); err != nil {
			return fmt.Errorf("audit: decode: %w", err)
		}
		years := 0
		for _, row := range resp.Rows {
			years += len(row.Years)
		}
		if resp.TotalCells != job.cells || years != job.cells {
			return fmt.Errorf("audit: %d/%d cells, want %d", years, resp.TotalCells, job.cells)
		}
	default:
		return fmt.Errorf("batch: unexpected request kind %s", req.Kind())
	}
	return nil
}

// batchCycleSeconds sizes batch_study: it runs one cycle per this many
// seconds of the requested run length. Later cycles reuse the systems and
// geometry references the first one built, so a fixed number of cycles
// keeps that warm-up share the same on every run.
const batchCycleSeconds = 2.2

func runBatch(w *world, dur time.Duration) *phase {
	p := &phase{byKind: map[string]*samples{}}
	before := w.d.engineTotals()
	start := time.Now()
	n := batchCycle * max(1, int(dur.Seconds()/batchCycleSeconds+0.5))
	for i := 0; i < n; i++ {
		job := w.batches.next()
		rid := w.tr.newReq("batch")
		sid := w.tr.begin("client."+job.req.Kind(), 0, rid)
		t0 := time.Now()
		r, err := w.post(w.d.routerURL+job.path, mustJSON(job.req), rid)
		ms := msSince(t0)
		w.tr.end(sid)
		p.attempted++
		if err == nil {
			err = checkBatch(job, r)
		}
		if err != nil {
			p.fail(err)
			p.lat.fail()
			continue
		}
		p.lat.add(ms)
		p.addKind(job.req.Kind(), ms)
		p.ops += float64(job.cells)
	}
	p.wall = time.Since(start)
	if failed := w.d.engineTotals().JobsFailed - before.JobsFailed; failed != 0 {
		p.check(fmt.Errorf("batch_study: %d engine jobs failed", failed))
	}
	return p
}

// --- stream_cosim ---

// jobRef is the part of a job snapshot the benchmark reads.
type jobRef struct {
	ID       string             `json:"id"`
	State    string             `json:"state"`
	Error    string             `json:"error"`
	Progress *api.SweepProgress `json:"progress"`
	Result   json.RawMessage    `json:"result"`
}

func (w *world) submitJob(req api.Request, reqID string) (*jobRef, error) {
	env, err := api.NewJobEnvelope(req)
	if err != nil {
		return nil, err
	}
	r, err := w.post(w.d.routerURL+"/v1/jobs", mustJSON(env), reqID)
	if err != nil {
		return nil, err
	}
	if r.status != http.StatusAccepted && r.status != http.StatusOK {
		return nil, fmt.Errorf("submit %s: status %d: %.200s", req.Kind(), r.status, r.body)
	}
	var ref jobRef
	if err := json.Unmarshal(r.body, &ref); err != nil || ref.ID == "" {
		return nil, fmt.Errorf("submit %s: no job ID in %.200s", req.Kind(), r.body)
	}
	return &ref, nil
}

// sseEvent is one parsed Server-Sent Event.
type sseEvent struct {
	name string
	id   int
	data []byte
}

// readSSE calls fn for every event on r until the body ends or fn
// returns an error.
func readSSE(r io.Reader, fn func(sseEvent) error) error {
	br := bufio.NewReaderSize(r, 64<<10)
	var ev sseEvent
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return err
		}
		line = strings.TrimRight(line, "\r\n")
		switch {
		case line == "":
			if ev.name != "" || ev.data != nil {
				if err := fn(ev); err != nil {
					return err
				}
			}
			ev = sseEvent{}
		case strings.HasPrefix(line, "event: "):
			ev.name = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "id: "):
			ev.id, _ = strconv.Atoi(strings.TrimPrefix(line, "id: "))
		case strings.HasPrefix(line, "data: "):
			ev.data = append(ev.data, strings.TrimPrefix(line, "data: ")...)
		}
	}
}

// streamCheck validates one SSE feed: interval seq values are 1, 2, …
// with no gap or repeat, and the feed ends in a done event for a
// finished job whose result covers every interval.
type streamCheck struct {
	want    int
	lastSeq int
	done    bool
}

func (c *streamCheck) event(ev sseEvent) error {
	if c.done {
		return fmt.Errorf("stream: event %q after done", ev.name)
	}
	switch ev.name {
	case "interval":
		var iv api.CosimStreamInterval
		if err := json.Unmarshal(ev.data, &iv); err != nil {
			return fmt.Errorf("stream: interval: %w", err)
		}
		if iv.Seq != c.lastSeq+1 || ev.id != iv.Seq {
			return fmt.Errorf("stream: interval seq %d (id %d) after %d", iv.Seq, ev.id, c.lastSeq)
		}
		c.lastSeq = iv.Seq
	case "done":
		var ref jobRef
		if err := json.Unmarshal(ev.data, &ref); err != nil {
			return fmt.Errorf("stream: done: %w", err)
		}
		if ref.State != string(service.StateDone) {
			return fmt.Errorf("stream: job ended %s: %s", ref.State, ref.Error)
		}
		var resp api.CosimStreamResponse
		if err := json.Unmarshal(ref.Result, &resp); err != nil {
			return fmt.Errorf("stream: result: %w", err)
		}
		if resp.Intervals != c.want {
			return fmt.Errorf("stream: result covers %d intervals, want %d", resp.Intervals, c.want)
		}
		c.done = true
	default:
		return fmt.Errorf("stream: unexpected event %q", ev.name)
	}
	return nil
}

func (c *streamCheck) finish() error {
	if !c.done {
		return fmt.Errorf("stream: feed ended after interval %d without a done event", c.lastSeq)
	}
	if c.lastSeq != c.want {
		return fmt.Errorf("stream: %d intervals streamed, want %d", c.lastSeq, c.want)
	}
	return nil
}

// runStream submits one cosimstream job and consumes its feed through
// the router, recording the submit → first interval time and the gaps
// between consecutive intervals.
func (w *world) runStream(req *api.CosimStreamRequest, gaps, first *samples) (int, error) {
	rid := w.tr.newReq("stream")
	sid := w.tr.begin("client.cosimstream", 0, rid)
	defer w.tr.end(sid)
	t0 := time.Now()
	ref, err := w.submitJob(req, rid)
	if err != nil {
		return 0, err
	}
	hreq, err := http.NewRequest(http.MethodGet, w.d.routerURL+"/v1/jobs/"+url.PathEscape(ref.ID)+"/stream", nil)
	if err != nil {
		return 0, err
	}
	if rid != "" {
		hreq.Header.Set(httpapi.RequestIDHeader, rid)
	}
	resp, err := w.client.Do(hreq)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		return 0, fmt.Errorf("stream: status %d: %.200s", resp.StatusCode, b)
	}
	chk := &streamCheck{want: req.Intervals}
	last := t0
	err = readSSE(resp.Body, func(ev sseEvent) error {
		now := time.Now()
		if err := chk.event(ev); err != nil {
			return err
		}
		if ev.name == "interval" {
			if chk.lastSeq == 1 {
				first.add(float64(now.Sub(t0).Nanoseconds()) / 1e6)
			} else {
				gaps.add(float64(now.Sub(last).Nanoseconds()) / 1e6)
			}
			last = now
		}
		return nil
	})
	if err == nil {
		err = chk.finish()
	}
	return chk.lastSeq, err
}

func runStreams(w *world, dur time.Duration) *phase {
	p := &phase{}
	before := w.d.engineTotals()
	start := time.Now()
	streamed := 0
	for time.Since(start) < dur {
		req := w.streams.next()
		p.attempted++
		n, err := w.runStream(req, &p.lat, &p.first)
		streamed += n
		if err != nil {
			p.fail(err)
			// The intervals that never arrived count against every
			// gap percentile.
			for i := max(n, 1); i < req.Intervals; i++ {
				p.lat.fail()
			}
			if n == 0 {
				p.first.fail()
			}
			continue
		}
		p.ops += float64(n)
	}
	p.wall = time.Since(start)
	if solved := w.d.engineTotals().StreamIntervals - before.StreamIntervals; solved != uint64(streamed) {
		p.check(fmt.Errorf("stream_cosim: engines solved %d intervals, %d were streamed", solved, streamed))
	}
	return p
}
