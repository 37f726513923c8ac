package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// maxSpans caps the spans one traced run keeps; later spans are
// counted as dropped rather than recorded.
const maxSpans = 200_000

// span is one timed call into a layer, recorded by the benchmark
// around its own call. Spans that share Req belong to one request.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Req    string `json:"req,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory. A nil *tracer records nothing, which is
// how untraced runs pay no tracing cost.
type tracer struct {
	mu      sync.Mutex
	t0      time.Time
	spans   []span
	dropped int
	reqSeq  int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its ID (0 when nothing is recorded).
func (t *tracer) begin(name string, parent int, req string) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Req: req, Start: now, End: -1})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// newReq mints a request ID shared by the spans of one request; it is
// also sent as X-Request-Id so the program can correlate it.
func (t *tracer) newReq(prefix string) string {
	if t == nil {
		return ""
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.reqSeq++
	return fmt.Sprintf("%s-%06d", prefix, t.reqSeq)
}

// timeSpan runs f inside a span.
func (t *tracer) timeSpan(name string, parent int, req string, f func() error) error {
	id := t.begin(name, parent, req)
	err := f()
	t.end(id)
	return err
}

// durations returns the durations in milliseconds of every closed span
// with the given name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, float64(s.dur())/1e6)
		}
	}
	return out
}

// spanSummary is the per-name roll-up written beside the spans.
type spanSummary struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
	P50MS   float64 `json:"p50_ms"`
}

// selfTimes returns each closed span's self time: its duration minus
// the part of its interval that its children cover.
func selfTimes(spans []span) []int64 {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.Parent != 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		type iv struct{ a, b int64 }
		var ivs []iv
		for _, c := range children[s.ID] {
			a, b := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		sort.Slice(ivs, func(x, y int) bool { return ivs[x].a < ivs[y].a })
		var covered, curA, curB int64
		open := false
		for _, v := range ivs {
			switch {
			case !open:
				curA, curB, open = v.a, v.b, true
			case v.a <= curB:
				curB = max(curB, v.b)
			default:
				covered += curB - curA
				curA, curB = v.a, v.b
			}
		}
		if open {
			covered += curB - curA
		}
		self[i] = s.dur() - covered
	}
	return self
}

func (t *tracer) summary() []spanSummary {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	self := selfTimes(spans)
	byName := map[string]*spanSummary{}
	durs := map[string][]float64{}
	for i, s := range spans {
		if s.End < 0 {
			continue
		}
		sum := byName[s.Name]
		if sum == nil {
			sum = &spanSummary{Name: s.Name}
			byName[s.Name] = sum
		}
		sum.Count++
		sum.TotalMS += float64(s.dur()) / 1e6
		sum.SelfMS += float64(self[i]) / 1e6
		durs[s.Name] = append(durs[s.Name], float64(s.dur())/1e6)
	}
	out := make([]spanSummary, 0, len(byName))
	for name, sum := range byName {
		sum.P50MS = median(durs[name])
		out = append(out, *sum)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// doc returns the spans, their per-name summary and the dropped count,
// ready to be written out.
func (t *tracer) doc() map[string]any {
	sum := t.summary()
	t.mu.Lock()
	defer t.mu.Unlock()
	return map[string]any{"summary": sum, "spans": t.spans, "dropped_spans": t.dropped}
}

// writeTrace writes doc as one JSON file.
func writeTrace(path string, doc map[string]any) error {
	b, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
