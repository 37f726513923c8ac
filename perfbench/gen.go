package main

import (
	"math"
	"math/rand/v2"
	"slices"

	"waterimm/internal/api"
	"waterimm/internal/mc"
)

// The generators turn --seed into request sequences. The program only
// ever sees the generated requests; the seed never reaches it. Every
// generator draws its categorical fields from shuffled decks rather
// than independently, so each run sees the same mix of grid classes,
// depths, chips and coolants and only their pairing and order change
// with the seed. That keeps percentiles comparable across seeds.

var (
	chipNames    = []string{"low-power", "high-frequency", "e5", "phi"}
	coolantNames = []string{"air", "water-pipe", "mineral-oil", "fluorinert", "water"}
	liquidNames  = []string{"water-pipe", "mineral-oil", "fluorinert", "water"}
)

// gridClasses are the plan_cold grid sizes; planGridQuota is how many
// requests of each class one block of planBlock requests holds. 85% of
// requests fall on 32–64² grids, so the median is a small-grid plan,
// and 15% on 96²/128², so the 90th percentile is a large one.
var (
	gridClasses   = []int{32, 48, 64, 96, 128}
	planGridQuota = []int{7, 5, 5, 2, 1}
)

// planBlock is the number of requests in one plan_cold block. Every
// block holds 20 (grid, depth, chip, coolant) slots: depths spread
// evenly over 1–8 within each grid class, and each of the 4×5 chip ×
// coolant pairs exactly once, half of the slots flipped, and one 1.5 °C
// threshold band of 65–95 °C per slot. The pairings rotate from block to
// block, so no (grid, depth, chip, coolant) geometry repeats within 20
// blocks and every plan builds and assembles its own system. Block b is
// the same for every seed; the seed shuffles the order within a block
// and draws each request's threshold within its slot's band.
const planBlock = 20

type planSlot struct {
	grid, depth   int
	chip, coolant string
	flip          bool
	band          int // threshold band, 0–19
}

func planSlots(block int) []planSlot {
	var slots []planSlot
	for c, grid := range gridClasses {
		q := planGridQuota[c]
		for i := 0; i < q; i++ {
			depth := 4
			if q > 1 {
				depth = 1 + int(7*float64(i)/float64(q-1)+0.5)
			}
			k := len(slots) + block
			slots = append(slots, planSlot{
				grid: grid, depth: depth,
				chip: chipNames[k%len(chipNames)], coolant: coolantNames[k%len(coolantNames)],
				flip: (len(slots)+block)%2 == 1,
				band: (7*len(slots) + 3*block) % planBlock,
			})
		}
	}
	return slots
}

func newRand(seed uint64, stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, stream))
}

// deck deals its items in a freshly shuffled order, reshuffling once
// every item has been dealt.
type deck[T any] struct {
	items []T
	left  []T
	rng   *rand.Rand
}

func newDeck[T any](rng *rand.Rand, items ...T) *deck[T] {
	return &deck[T]{items: items, rng: rng}
}

func (d *deck[T]) draw() T {
	if len(d.left) == 0 {
		d.left = append(d.left[:0], d.items...)
		d.rng.Shuffle(len(d.left), func(i, j int) { d.left[i], d.left[j] = d.left[j], d.left[i] })
	}
	v := d.left[len(d.left)-1]
	d.left = d.left[:len(d.left)-1]
	return v
}

func round1(v float64) float64 { return math.Round(v*10) / 10 }

// planGen yields distinct nominal plan requests for plan_cold.
type planGen struct {
	rng    *rand.Rand
	blocks int
	left   []planSlot
	seen   map[string]bool
}

func newPlanGen(seed uint64) *planGen {
	return &planGen{rng: newRand(seed, 1), seen: make(map[string]bool)}
}

// next returns a request whose cache key no earlier request had.
func (g *planGen) next() *api.PlanRequest {
	if len(g.left) == 0 {
		g.left = planSlots(g.blocks)
		g.blocks++
		g.rng.Shuffle(len(g.left), func(i, j int) { g.left[i], g.left[j] = g.left[j], g.left[i] })
	}
	s := g.left[len(g.left)-1]
	g.left = g.left[:len(g.left)-1]
	r := &api.PlanRequest{
		Chip: s.chip, Chips: s.depth, Coolant: s.coolant, Flip: s.flip,
		GridNX: s.grid, GridNY: s.grid,
	}
	for {
		r.ThresholdC = round1(65 + 1.5*(float64(s.band)+g.rng.Float64()))
		if k := r.CacheKey(); !g.seen[k] {
			g.seen[k] = true
			return r
		}
	}
}

// hotKeys is the serve_hot working set: cheap 16² plans that are
// computed during set-up and then only ever re-read.
const hotKeyCount = 24

func hotKeys(seed uint64) []*api.PlanRequest {
	rng := newRand(seed, 2)
	chips := newDeck(rng, chipNames...)
	coolants := newDeck(rng, coolantNames...)
	seen := make(map[string]bool)
	var out []*api.PlanRequest
	for len(out) < hotKeyCount {
		r := &api.PlanRequest{
			Chip: chips.draw(), Chips: 1 + rng.IntN(2), Coolant: coolants.draw(),
			ThresholdC: round1(65 + 30*rng.Float64()), GridNX: 16, GridNY: 16,
		}
		if k := r.CacheKey(); !seen[k] {
			seen[k] = true
			out = append(out, r)
		}
	}
	return out
}

// hotPicker draws Zipf-popular key indices for one serve_hot client.
type hotPicker struct{ z *rand.Zipf }

func newHotPicker(seed uint64, client int) *hotPicker {
	rng := newRand(seed, 100+uint64(client))
	return &hotPicker{z: rand.NewZipf(rng, 1.1, 1, hotKeyCount-1)}
}

func (p *hotPicker) next() int { return int(p.z.Uint64()) }

// batchJob is one batch_study submission: its sync endpoint, request
// and the cell count the response must account for.
type batchJob struct {
	path  string
	req   api.Request
	cells int
}

// batchCycle is the number of jobs in one batch_study cycle: four
// rounds of montecarlo → sweep → audit. The shape of each kind is fixed
// — grid, depths, coolants, cell count — and within a cycle every
// montecarlo job perturbs a different parameter and each kind runs
// twice per chip, so every cycle does the same kind of work. The seed
// orders the parameters and chips and draws thresholds, growth rates
// and sampling seeds, so no job is a whole-job cache hit.
const batchCycle = 12

var (
	batchChips  = []string{"low-power", "high-frequency"}
	batchParams = []string{"ambient_c", "die_k", "h", "p_dyn"}
)

type batchGen struct {
	rng    *rand.Rand
	n      int
	chips  []string
	params []string
}

func newBatchGen(seed uint64) *batchGen {
	return &batchGen{rng: newRand(seed, 3)}
}

// mcSamples and mcParamCount size the montecarlo jobs: samples ×
// (params + 2) Saltelli cells.
const (
	mcSamples    = 8
	mcParamCount = 1
)

func (g *batchGen) next() batchJob {
	i := g.n % batchCycle
	g.n++
	if i == 0 {
		g.params = append([]string(nil), batchParams...)
		g.rng.Shuffle(len(g.params), func(a, b int) { g.params[a], g.params[b] = g.params[b], g.params[a] })
		g.chips = append([]string(nil), batchChips...)
		g.rng.Shuffle(len(g.chips), func(a, b int) { g.chips[a], g.chips[b] = g.chips[b], g.chips[a] })
	}
	round, kind := i/3, i%3
	chip := g.chips[(round+kind)%2]
	switch kind {
	case 0:
		param := g.params[round]
		dist := mc.Dist{Kind: "uniform", Min: 0.8, Max: 1.2}
		if param == "ambient_c" {
			dist = mc.Dist{Kind: "uniform", Min: 20, Max: 35}
		}
		r := &api.MonteCarloRequest{
			Chip: chip, Chips: 4, Coolant: "water",
			ThresholdC: round1(76 + 4*float64(slices.Index(batchParams, param)) + 2*g.rng.Float64()),
			GridNX:     32, GridNY: 32,
			Samples: mcSamples, Seed: 1 + g.rng.Int64N(1<<40),
			Params: map[string]mc.Dist{param: dist},
		}
		return batchJob{path: "/v1/montecarlo", req: r, cells: mcSamples * (mcParamCount + 2)}
	case 1:
		r := &api.SweepRequest{
			Chips:    []string{chip},
			Depths:   []int{2, 3},
			Coolants: []string{"air", "mineral-oil", "water"},
			GridNX:   32, GridNY: 32,
		}
		r.ThresholdsC = []float64{round1(70 + 2*g.rng.Float64()), round1(85 + 2*g.rng.Float64())}
		return batchJob{path: "/v1/sweep", req: r, cells: sweepCells(r)}
	default:
		r := &api.AuditRequest{
			Chips:         []string{chip},
			Coolants:      []string{"fluorinert", "mineral-oil", "water"},
			StartYear:     2026,
			EndYear:       2033,
			GrowthPerYear: math.Round((1.14+0.02*g.rng.Float64())*1000) / 1000,
			ThresholdC:    round1(80 + 2*g.rng.Float64()),
			GridNX:        64, GridNY: 64,
		}
		return batchJob{path: "/v1/audit", req: r, cells: auditCells(r)}
	}
}

// sweepCells and auditCells count the cells a request expands to after
// the service canonicalizes it (duplicate coolants and thresholds
// collapse), without mutating the request.
func sweepCells(r *api.SweepRequest) int {
	c := *r
	c.Coolants = append([]string(nil), r.Coolants...)
	c.ThresholdsC = append([]float64(nil), r.ThresholdsC...)
	c.Chips = append([]string(nil), r.Chips...)
	c.Depths = append([]int(nil), r.Depths...)
	c.Normalize()
	return len(c.Chips) * len(c.Depths) * len(c.Coolants) * len(c.ThresholdsC)
}

func auditCells(r *api.AuditRequest) int {
	c := *r
	c.Chips = append([]string(nil), r.Chips...)
	c.Coolants = append([]string(nil), r.Coolants...)
	c.Normalize()
	return c.TotalCells()
}

// streamGen yields cosimstream requests with DTM on.
type streamGen struct {
	rng     *rand.Rand
	chips   *deck[string]
	liquids *deck[string]
}

// streamIntervals and streamChips fix the length and depth of every
// generated stream, so interval cost does not depend on the seed.
const (
	streamIntervals = 128
	streamChips     = 2
)

func newStreamGen(seed uint64) *streamGen {
	rng := newRand(seed, 4)
	return &streamGen{
		rng:     rng,
		chips:   newDeck(rng, "low-power", "high-frequency"),
		liquids: newDeck(rng, liquidNames...),
	}
}

func (g *streamGen) next() *api.CosimStreamRequest {
	chip := g.chips.draw()
	ghz := 3.6
	if chip == "low-power" {
		ghz = 2.0
	}
	r := &api.CosimStreamRequest{
		Chip: chip, Chips: streamChips, Coolant: g.liquids.draw(), GHz: ghz,
		Intervals:       streamIntervals,
		DTMSetpointC:    round1(60 + 20*g.rng.Float64()),
		GridNX:          32,
		GridNY:          32,
		CheckpointEvery: 32,
	}
	for i, n := 0, 2+g.rng.IntN(3); i < n; i++ {
		r.Trace = append(r.Trace, api.CosimStreamPhase{
			DurationS:   round1(0.1 + 0.4*g.rng.Float64()),
			Utilisation: round1(0.2 + 0.8*g.rng.Float64()),
		})
	}
	return r
}
