package core

import (
	"math"
	"slices"
	"sync"
	"testing"
	"time"

	"waterimm/internal/material"
	"waterimm/internal/power"
	"waterimm/internal/thermal"
)

// poolPlanner returns a small nominal planner sharing the cache g.
func poolPlanner(g *GeomCache) *Planner {
	p := fastPlanner()
	p.Params.GridNX, p.Params.GridNY = 8, 8
	p.Geoms = g
	return p
}

func openSession(t testing.TB, p *Planner, chips int) *Session {
	t.Helper()
	s, err := p.NewSession(power.LowPower, chips, material.Water)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestGeomPoolHitAndMiss(t *testing.T) {
	g := NewGeomCache(4)
	p := poolPlanner(g)

	s1 := openSession(t, p, 2)
	sys1 := s1.sys
	s1.Close()
	if st := g.Stats().Pool; st.Misses != 1 || st.Hits != 0 || st.Idle != 1 {
		t.Fatalf("after the first session: %+v, want 1 miss, 1 idle", st)
	}

	s2 := openSession(t, p, 2)
	if s2.sys != sys1 {
		t.Fatal("second session did not reuse the released system")
	}
	if st := g.Stats().Pool; st.Hits != 1 || st.Misses != 1 || st.Idle != 0 {
		t.Fatalf("stats %+v, want 1 hit, 1 miss, 0 idle", st)
	}

	// A different geometry never sees this one's system.
	s3 := openSession(t, p, 3)
	if s3.sys == sys1 {
		t.Fatal("distinct geometry reused a pooled system")
	}
	if st := g.Stats().Pool; st.Misses != 2 {
		t.Fatalf("stats %+v, want 2 misses", st)
	}

	// Same geometry, other values: no pooled system of ours exists,
	// so the session replays the tape — a hit that displaces the
	// stale idle system instead of piling up beside it.
	s2.Close()
	warm := poolPlanner(g)
	warm.Params.AmbientC += 5
	s4 := openSession(t, warm, 2)
	if s4.sys == sys1 {
		t.Fatal("a session with other values took a pooled system")
	}
	if st := g.Stats().Pool; st.Hits != 2 || st.Idle != 0 || st.Evictions != 1 {
		t.Fatalf("stats %+v, want 2 hits, 0 idle, 1 eviction", st)
	}
}

func TestGeomPoolExclusiveOwnership(t *testing.T) {
	g := NewGeomCache(4)
	p := poolPlanner(g)
	a := openSession(t, p, 2)
	b := openSession(t, p, 2)
	if a.sys == b.sys {
		t.Fatal("concurrent sessions shared one system")
	}
	a.Close()
	b.Close()
	if st := g.Stats().Pool; st.Idle != 2 || st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("stats %+v, want 2 idle, 1 miss, 1 hit", st)
	}
}

func TestGeomPoolLRUEviction(t *testing.T) {
	g := NewGeomCache(2)
	p := poolPlanner(g)
	systems := make(map[int]*thermal.System)
	for _, chips := range []int{1, 2, 3} {
		s := openSession(t, p, chips)
		systems[chips] = s.sys
		s.Close()
	}
	st := g.Stats()
	if st.Geometries != 2 || st.Pool.Idle != 2 || st.Pool.Evictions != 1 {
		t.Fatalf("stats %+v, want 2 geometries, 2 idle, 1 eviction", st)
	}
	// The 1-chip geometry was used first, so it was evicted; the
	// 3-chip one must still hit.
	s := openSession(t, p, 3)
	if s.sys != systems[3] {
		t.Fatal("most recently used geometry lost its pooled system")
	}
	openSession(t, p, 1)
	if got := g.Stats().Pool.Misses; got != 4 {
		t.Fatalf("misses %d, want 4 (three initial builds + the evicted geometry)", got)
	}
}

func TestGeomPoolNilSafe(t *testing.T) {
	var g *GeomCache
	s := openSession(t, poolPlanner(g), 2)
	if s.sys == nil {
		t.Fatal("nil cache assembled no system")
	}
	s.Close() // must not panic
	g.release("k", "k", s.sys)
	if st := g.Stats(); st != (GeomStats{}) {
		t.Fatalf("nil cache stats %+v", st)
	}
}

func TestGeomPoolConcurrent(t *testing.T) {
	g := NewGeomCache(8)
	const workers, rounds = 8, 20
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			p := poolPlanner(g)
			for i := 0; i < rounds; i++ {
				s, err := p.NewSession(power.LowPower, 1+w%3, material.Water)
				if err != nil {
					t.Error(err)
					return
				}
				// Touch the system as a real session would.
				if err := s.setPower(1, 1); err != nil {
					t.Error(err)
				}
				s.Close()
			}
		}(w)
	}
	wg.Wait()
	st := g.Stats().Pool
	if st.Hits+st.Misses != workers*rounds {
		t.Fatalf("acquisitions %d, want %d", st.Hits+st.Misses, workers*rounds)
	}
	if st.Misses != 3 {
		t.Fatalf("misses %d, want one full assembly per geometry", st.Misses)
	}
}

// TestGeomPoolCoalescesColdBuilds: sessions that open one cold
// geometry at the same time run a single full assembly between them;
// the rest wait for its tape and replay it, and every replayed system
// is bit-identical to a standalone assembly.
func TestGeomPoolCoalescesColdBuilds(t *testing.T) {
	const n = 8
	g := NewGeomCache(4)
	sessions := make([]*Session, n)
	var opened, start sync.WaitGroup
	opened.Add(n)
	start.Add(1)
	for i := range sessions {
		go func(i int) {
			defer opened.Done()
			start.Wait()
			s, err := poolPlanner(g).NewSession(power.LowPower, 3, material.Water)
			if err != nil {
				t.Error(err)
				return
			}
			sessions[i] = s
		}(i)
	}
	start.Done()
	opened.Wait()
	if t.Failed() {
		return
	}
	st := g.Stats()
	if st.Pool.Misses != 1 || st.Pool.Hits != n-1 || st.SymbolicMisses != 1 {
		t.Fatalf("stats %+v, want exactly 1 full assembly and %d hits", st, n-1)
	}
	want, err := thermal.Assemble(sessions[0].model)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range sessions {
		if !sameSystem(s.sys, want) {
			t.Errorf("session %d: system differs from a standalone assembly", i)
		}
		s.Close()
	}
	if idle := g.Stats().Pool.Idle; idle != n {
		t.Fatalf("idle %d after closing %d sessions", idle, n)
	}
}

// sameSystem reports whether two systems have bit-identical CSR
// matrices, diagonals, right-hand sides and capacities.
func sameSystem(a, b *thermal.System) bool {
	bits := func(x, y []float64) bool {
		return slices.EqualFunc(x, y, func(u, v float64) bool {
			return math.Float64bits(u) == math.Float64bits(v)
		})
	}
	return a.N == b.N && slices.Equal(a.RowPtr, b.RowPtr) && slices.Equal(a.ColIdx, b.ColIdx) &&
		bits(a.Val, b.Val) && bits(a.Diag, b.Diag) && bits(a.Q, b.Q) && bits(a.Capacity, b.Capacity)
}

// TestGeomPoolBuilderPanicReleasesWaiters: a full assembly that
// panics still releases the sessions waiting on it, and they assemble
// for themselves.
func TestGeomPoolBuilderPanicReleasesWaiters(t *testing.T) {
	g := NewGeomCache(4)
	model := openSession(t, poolPlanner(nil), 2).model
	entered, proceed := make(chan struct{}), make(chan struct{})
	go func() {
		defer func() { _ = recover() }()
		g.acquire("geom", "k", true, func() (*thermal.Model, error) {
			close(entered)
			<-proceed
			panic("build failed")
		})
	}()
	<-entered
	done := make(chan error, 1)
	go func() {
		_, err := g.acquire("geom", "k", true, func() (*thermal.Model, error) { return model, nil })
		done <- err
	}()
	close(proceed)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("waiter still blocked after the builder panicked")
	}
	if st := g.Stats().Pool; st.Misses != 1 {
		t.Fatalf("stats %+v, want the waiter's own full assembly", st)
	}
}
