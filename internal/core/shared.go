package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"waterimm/internal/material"
	"waterimm/internal/power"
	"waterimm/internal/thermal"
)

// GeomCache is the one per-geometry cache: everything a session can
// reuse across sessions and jobs for a stack topology lives in one
// entry, keyed by geomKey (chip, depth, coolant, grid — no parameter
// values):
//
//   - the symbolic assembly skeleton (thermal.Structure): value-only
//     reassembly through it skips the symbolic pattern search, so every
//     same-topology session after the first — perturbed Monte-Carlo
//     samples included — pays only the O(nnz) value fill (assembly is
//     comparable in cost to a full CG solve);
//   - idle assembled systems of nominal sessions, each tagged with its
//     full sessionKey and handed out only to a session with identical
//     values, for exclusive use until Close returns it. A frequency
//     search, a sweep cell per threshold and a repeated service request
//     then skip assembly and multigrid setup entirely;
//   - one in-flight full assembly: while a geometry's first assembly
//     runs, every other caller of the geometry waits for it and then
//     replays the tape (a bit-identical CSR) instead of assembling
//     twice;
//   - the nominal reference (geomRef) for perturbed sessions: they
//     borrow its multigrid hierarchy as a stale-but-SPD CG
//     preconditioner instead of paying a full multigrid build per
//     sample, refreshing its values only when the iteration guard shows
//     the perturbation drifted too far, and warm-start their
//     superposition-basis solves from its basis fields, which is where
//     a Monte-Carlo cell spends nearly all of its CG iterations.
//
// Perturbed sessions assemble through the entry but never pool: their
// value-unique systems could never be handed out again. The reference
// is seeded deterministically from nominal parameter values by
// EnsureGeomRef, never from whichever perturbed sample happens to
// arrive first, so Monte-Carlo statistics stay bitwise reproducible
// under concurrent scheduling.
//
// The geometry LRU is the only bound: an evicted geometry drops its
// tape, reference and idle systems together. Idle systems per entry
// never outnumber the geometry's peak count of concurrent sessions,
// because a session that finds no idle system of its own values
// displaces a stale one.
//
// Safe for concurrent use. A nil *GeomCache is valid and shares
// nothing — every session assembles fully and drops its system on
// Close.
type GeomCache struct {
	mu    sync.Mutex
	cap   int
	seq   uint64
	geoms map[string]*geomEntry

	pool                            PoolStats
	symbolicHits, symbolicMisses    uint64
	precondReused, precondRefreshed uint64
}

type geomEntry struct {
	seq       uint64
	structure *thermal.Structure
	ref       *geomRef
	// idle holds the nominal systems no session currently owns.
	idle []idleSystem
	// assembling is closed when the geometry's in-flight full assembly
	// finishes; nil when none runs.
	assembling chan struct{}
	// building serializes concurrent EnsureGeomRef calls: the first
	// caller builds the nominal reference while later ones block on the
	// channel instead of duplicating the work.
	building chan struct{}
}

// idleSystem is a pooled system and the sessionKey it was assembled
// under.
type idleSystem struct {
	key string
	sys *thermal.System
}

// geomRef is a geometry's shared nominal reference: the artifacts a
// perturbed sample can legally reuse because they depend only on the
// topology it shares with the nominal geometry. It is built exactly
// once per geometry from the *nominal* parameter values (EnsureGeomRef),
// never from a perturbed sample — so its contents are deterministic
// regardless of which Monte-Carlo cell arrives first, and so are the
// iteration paths (and bit-level results) of every borrower.
type geomRef struct {
	// mg is the nominal multigrid hierarchy, borrowed by perturbed
	// sessions as a stale-but-SPD CG preconditioner (nil for
	// Jacobi-sized geometries).
	mg *thermal.Multigrid
	// iters is the largest iteration count observed while building the
	// nominal basis — the baseline the borrowers' refresh guard
	// compares against.
	iters int
	// basis is the nominal superposition basis; perturbed sessions use
	// its fields as warm starts for their own basis solves, which is
	// where a Monte-Carlo cell spends nearly all of its CG iterations.
	basis *sessionBasis
	// ambientC is the nominal ambient the basis was built at, so a
	// perturbed-ambient cell can shift the base-field guess.
	ambientC float64
}

// NewGeomCache returns a cache holding at most capacity geometries
// (default 32 when capacity <= 0), evicting least-recently-used
// entries beyond it.
func NewGeomCache(capacity int) *GeomCache {
	if capacity <= 0 {
		capacity = 32
	}
	return &GeomCache{cap: capacity, geoms: make(map[string]*geomEntry)}
}

// geomKey is the topology signature of a session's geometry: unlike
// sessionKey it excludes every parameter *value*, so all perturbed
// samples of one geometry share the entry. Values that could change
// the sparsity pattern anyway (a coefficient crossing zero) are
// caught by the structure's own tape guard, which falls back to full
// assembly.
func (p *Planner) geomKey(chip power.Model, chips int, coolant material.Coolant) string {
	return fmt.Sprintf("v1|chip=%s|chips=%d|coolant=%s|grid=%dx%d",
		chip.Name, chips, coolant.Name, p.Params.GridNX, p.Params.GridNY)
}

// entryLocked returns the geometry's entry, creating it and evicting
// the stalest entry beyond capacity.
func (g *GeomCache) entryLocked(key string) *geomEntry {
	e := g.geoms[key]
	if e == nil {
		e = &geomEntry{}
		g.geoms[key] = e
		for len(g.geoms) > g.cap {
			var oldKey string
			var oldSeq uint64
			first := true
			for k, v := range g.geoms {
				if k != key && (first || v.seq < oldSeq) {
					oldKey, oldSeq, first = k, v.seq, false
				}
			}
			if first {
				break
			}
			n := len(g.geoms[oldKey].idle)
			g.pool.Idle -= n
			g.pool.Evictions += uint64(n)
			delete(g.geoms, oldKey)
		}
	}
	g.seq++
	e.seq = g.seq
	return e
}

// acquire returns an assembled system for the geometry gkey, owned
// exclusively by the caller. A nominal caller first takes an idle
// system assembled under the same sessionKey; any other caller — and a
// nominal one that finds none — assembles from model(): by tape replay
// once the geometry has a structure, otherwise by a full assembly that
// seeds it. Concurrent callers of a geometry without a structure wait
// for the one full assembly in flight and then replay its tape; if that
// build failed or left no tape, they assemble fully themselves. A nil
// cache always assembles fully.
func (g *GeomCache) acquire(gkey, key string, nominal bool, model func() (*thermal.Model, error)) (*thermal.System, error) {
	if g == nil {
		m, err := model()
		if err != nil {
			return nil, err
		}
		return thermal.Assemble(m)
	}
	g.mu.Lock()
	e := g.entryLocked(gkey)
	if e.structure == nil && e.assembling != nil {
		ch := e.assembling
		g.mu.Unlock()
		<-ch
		g.mu.Lock()
		e = g.entryLocked(gkey)
	}
	if nominal {
		if sys := g.takeIdleLocked(e, key); sys != nil {
			g.mu.Unlock()
			return sys, nil
		}
	}
	st := e.structure
	if st == nil && e.assembling == nil {
		// This caller runs the geometry's full assembly; later callers
		// wait for its tape. The deferred close also runs on a panic,
		// so a waiter can never block forever.
		ch := make(chan struct{})
		e.assembling = ch
		defer func() {
			g.mu.Lock()
			if e.assembling == ch {
				e.assembling = nil
			}
			g.mu.Unlock()
			close(ch)
		}()
	}
	g.mu.Unlock()

	m, err := model()
	if err != nil {
		return nil, err
	}
	if st != nil {
		sys, err := st.Assemble(m)
		if err == nil {
			g.mu.Lock()
			g.symbolicHits++
			if nominal {
				g.pool.Hits++
			}
			g.mu.Unlock()
			return sys, nil
		}
		if !errors.Is(err, thermal.ErrStructureMismatch) {
			return nil, err
		}
		// The model's topology diverged from the cached skeleton (a
		// coefficient crossed zero, a different layer stack under the
		// same key): rebuild fully and re-seed below.
	}
	g.mu.Lock()
	g.symbolicMisses++
	if nominal {
		g.pool.Misses++
	}
	g.mu.Unlock()
	sys, err := thermal.Assemble(m)
	if err != nil {
		return nil, err
	}
	if ns, serr := sys.Structure(); serr == nil {
		g.mu.Lock()
		g.entryLocked(gkey).structure = ns
		g.mu.Unlock()
	}
	return sys, nil
}

// takeIdleLocked pops the entry's idle system assembled under key,
// counting a pool hit. When none matches it drops the oldest idle
// system of other values instead, since the caller is about to bring
// its own: that keeps the entry's idle systems within its peak count of
// concurrent sessions.
func (g *GeomCache) takeIdleLocked(e *geomEntry, key string) *thermal.System {
	for i := len(e.idle) - 1; i >= 0; i-- {
		if e.idle[i].key == key {
			sys := e.idle[i].sys
			e.idle = slices.Delete(e.idle, i, i+1)
			g.pool.Idle--
			g.pool.Hits++
			return sys
		}
	}
	if len(e.idle) > 0 {
		e.idle = slices.Delete(e.idle, 0, 1)
		g.pool.Idle--
		g.pool.Evictions++
	}
	return nil
}

// release returns a nominal session's system to its geometry's idle
// pool. A system whose geometry was evicted while it was out is
// dropped (and counted as evicted with it). Nil-safe.
func (g *GeomCache) release(gkey, key string, sys *thermal.System) {
	if g == nil || sys == nil {
		return
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	e := g.geoms[gkey]
	if e == nil {
		g.pool.Evictions++
		return
	}
	e.idle = append(e.idle, idleSystem{key: key, sys: sys})
	g.pool.Idle++
}

// borrowRef returns the geometry's nominal reference, or nil when
// EnsureGeomRef has not seeded one yet. Callers must use
// Borrow()/RefreshedCopy() on ref.mg — never Apply it directly — since
// other sessions solve with it concurrently; basis fields are
// read-only.
func (g *GeomCache) borrowRef(key string) *geomRef {
	if g == nil {
		return nil
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.entryLocked(key).ref
}

// noteReused counts a session that borrowed the reference hierarchy
// instead of building its own.
func (g *GeomCache) noteReused() {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.precondReused++
	g.mu.Unlock()
}

// EnsureGeomRef builds and registers the geometry's shared nominal
// reference — multigrid hierarchy, superposition basis and iteration
// baseline — unless one exists. The receiver must be a *nominal*
// planner for the geometry (same grid and flip layout as the perturbed
// samples, unperturbed parameter values): building the reference from
// nominal values is what makes every borrower's iteration path, and
// therefore the Monte-Carlo statistics, deterministic regardless of
// cell scheduling. Concurrent callers for one geometry coalesce into a
// single build. A nil Geoms (or a ColdStart planner) is a no-op.
func (p *Planner) EnsureGeomRef(ctx context.Context, chip power.Model, chips int, coolant material.Coolant) error {
	g := p.Geoms
	if g == nil || p.ColdStart || p.Perturbed {
		return nil
	}
	key := p.geomKey(chip, chips, coolant)
	g.mu.Lock()
	e := g.entryLocked(key)
	if e.ref != nil {
		g.mu.Unlock()
		return nil
	}
	if e.building != nil {
		ch := e.building
		g.mu.Unlock()
		select {
		case <-ch: // builder finished (or failed; borrowers fall back)
			return nil
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	ch := make(chan struct{})
	e.building = ch
	g.mu.Unlock()

	ref, err := p.buildGeomRef(ctx, chip, chips, coolant)
	g.mu.Lock()
	// Re-fetch: the entry may have been evicted and recreated while we
	// were building outside the lock.
	e = g.entryLocked(key)
	e.building = nil
	if err == nil && e.ref == nil {
		e.ref = ref
	}
	g.mu.Unlock()
	close(ch)
	return err
}

// buildGeomRef runs one nominal session to completion of its basis and
// harvests the shareable artifacts. The three basis solves double as
// the iteration baseline for the borrowers' refresh guard.
func (p *Planner) buildGeomRef(ctx context.Context, chip power.Model, chips int, coolant material.Coolant) (*geomRef, error) {
	// Shallow-copy the planner so the iteration probe composes with —
	// instead of clobbering — the caller's OnSolve observer.
	np := *p
	inner := p.OnSolve
	var maxIters int
	np.OnSolve = func(st thermal.SolveStats) {
		if st.Iterations > maxIters {
			maxIters = st.Iterations
		}
		if inner != nil {
			inner(st)
		}
	}
	s, err := np.NewSession(chip, chips, coolant)
	if err != nil {
		return nil, err
	}
	defer s.Close()
	if err := s.Prime(ctx); err != nil {
		return nil, err
	}
	ref := &geomRef{iters: maxIters, basis: s.basis, ambientC: np.Params.AmbientC}
	if wants, werr := s.sys.WantsMG(np.Precond); werr == nil && wants {
		// Multigrid() is cached on the system, so this is the hierarchy
		// the nominal session already built (and the pooled system will
		// keep carrying); borrowers take race-free Borrow() copies.
		if mg, merr := s.sys.Multigrid(); merr == nil {
			ref.mg = mg
		}
	}
	return ref, nil
}

// noteRefreshed counts a borrower giving up on the stale hierarchy
// and refreshing its values.
func (g *GeomCache) noteRefreshed() {
	if g == nil {
		return
	}
	g.mu.Lock()
	g.precondRefreshed++
	g.mu.Unlock()
}

// PoolStats counts the nominal system pool across all geometries.
type PoolStats struct {
	// Idle is the number of systems currently pooled.
	Idle int `json:"idle"`
	// Hits counts nominal acquisitions that ran no full symbolic
	// assembly (an idle system, or a tape replay — also after waiting
	// for the geometry's in-flight build); Misses counts nominal full
	// assemblies. Evictions counts idle systems dropped with an evicted
	// geometry or displaced by a session of other values.
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Evictions uint64 `json:"evictions"`
}

// GeomStats is a point-in-time snapshot of the cache's counters.
type GeomStats struct {
	// Geometries is the number of cached geometry entries.
	Geometries int `json:"geometries"`
	// Pool reports the nominal sessions' system pool; perturbed
	// sessions count only in the symbolic counters below.
	Pool PoolStats `json:"pool"`
	// SymbolicHits counts assemblies that reused a cached sparsity
	// pattern (value-only fill); SymbolicMisses counts full symbolic
	// assemblies, including the one that seeds each geometry.
	SymbolicHits   uint64 `json:"symbolic_hits"`
	SymbolicMisses uint64 `json:"symbolic_misses"`
	// PrecondReused counts sessions that borrowed a geometry's
	// nominal multigrid hierarchy instead of building their own;
	// PrecondRefreshed counts borrowed hierarchies whose values had
	// to be recomputed after the iteration guard tripped.
	PrecondReused    uint64 `json:"precond_reused"`
	PrecondRefreshed uint64 `json:"precond_refreshed"`
}

// Stats returns the cache's counters. A nil cache reports zeros.
func (g *GeomCache) Stats() GeomStats {
	if g == nil {
		return GeomStats{}
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	return GeomStats{
		Geometries:       len(g.geoms),
		Pool:             g.pool,
		SymbolicHits:     g.symbolicHits,
		SymbolicMisses:   g.symbolicMisses,
		PrecondReused:    g.precondReused,
		PrecondRefreshed: g.precondRefreshed,
	}
}
