package live

import (
	"sort"
	"sync"

	"mcgc/internal/pacing"
)

// The live backend's pacing "word" is one heap object: the arena is a flat
// array of fixed-size objects, so object counts are the natural unit for
// free memory (F), tracing progress (T, one per scanned object) and the
// L/M predictors. pacing.FormulaPolicy is single-threaded by contract;
// livePacer is the gate that serializes it — mutators paying their
// allocation tax, tracers reporting progress and the driver deciding
// kickoff all funnel through one mutex. Everything the telemetry layer
// wants (the K trajectory, the kickoff log) is buffered here under the same
// lock and drained by the driver at the end of the run, because the
// Registry/Timeline sinks are unsynchronized and driver-only.

// liveBestWindow is the default B-sampling window in objects. The paper's
// 1MB window assumes byte-denominated words; 4096 objects fills several
// times per marking phase at the default arena size, which is what Best
// needs to prime.
const liveBestWindow = 1 << 12

// kSampleEvery thins the recorded K trajectory: mutators evaluate the
// progress formula at every allocation-cache refill, which is far denser
// than a trajectory plot needs.
const kSampleEvery = 16

// kSampleCap bounds the trajectory buffer for arbitrarily long runs.
const kSampleCap = 1 << 16

// arenaObjectsView adapts the arena to the pacer's HeapView: free words are
// free-list entries, occupied words are everything else. FreeLen is one
// atomic load, cheap enough for every decision point.
type arenaObjectsView struct{ a *Arena }

func (v arenaObjectsView) FreeWords() int64 { return v.a.FreeLen() }
func (v arenaObjectsView) OccupiedWords() int64 {
	return int64(v.a.NumObjects()) - v.a.FreeLen()
}

// kSample is one recorded evaluation of the progress formula.
type kSample struct {
	at                  int64
	k, corrective, best float64
}

// kickoffPoint is one fired kickoff decision: the free level that crossed
// the threshold.
type kickoffPoint struct {
	at        int64
	free      int64
	threshold float64
}

// pacerSummary is the end-of-run digest finishReport copies into the Report.
type pacerSummary struct {
	increments                int64
	kFirst, kLast, kMin, kMax float64
	correctiveMax             float64
	kickoffs                  int
}

// livePacer wraps the Section 3 formula policy for concurrent use: the same
// pacing.FormulaPolicy the simulator drives, behind one mutex.
type livePacer struct {
	mu   sync.Mutex
	p    *pacing.FormulaPolicy
	view arenaObjectsView

	sum      pacerSummary
	samples  []kSample
	kickoffs []kickoffPoint
}

// newLivePacer builds the formula policy over the arena, applying the live
// backend's BestWindow default.
func newLivePacer(pc pacing.Config, a *Arena) *livePacer {
	view := arenaObjectsView{a}
	if pc.BestWindow == 0 {
		pc.BestWindow = liveBestWindow
	}
	return &livePacer{p: pacing.NewFormula(pc, view), view: view}
}

// kickoff evaluates the kickoff formula; a fired decision is logged with
// the free level and threshold that produced it. Only the driver calls it,
// but the gate is taken anyway: the predictors it reads are written by
// endCycle and raced by mutator increments.
func (lp *livePacer) kickoff(at int64) bool {
	lp.mu.Lock()
	defer lp.mu.Unlock()
	if !lp.p.Kickoff() {
		return false
	}
	lp.kickoffs = append(lp.kickoffs, kickoffPoint{
		at:        at,
		free:      lp.view.FreeWords(),
		threshold: lp.p.KickoffThreshold(),
	})
	lp.sum.kickoffs++
	return true
}

func (lp *livePacer) threshold() float64 {
	lp.mu.Lock()
	defer lp.mu.Unlock()
	return lp.p.KickoffThreshold()
}

func (lp *livePacer) startCycle() {
	lp.mu.Lock()
	defer lp.mu.Unlock()
	lp.p.StartCycle()
}

// incrementBudget is the mutators' entry point: one allocation-cache refill
// of allocObjs objects asks for its tracing budget. The K summary and the
// thinned trajectory are updated under the same lock.
func (lp *livePacer) incrementBudget(at, allocObjs int64) pacing.Budget {
	lp.mu.Lock()
	defer lp.mu.Unlock()
	b := lp.p.IncrementBudget(allocObjs)
	s := &lp.sum
	if s.increments == 0 {
		s.kFirst, s.kMin, s.kMax = b.K, b.K, b.K
	}
	s.kLast = b.K
	if b.K < s.kMin {
		s.kMin = b.K
	}
	if b.K > s.kMax {
		s.kMax = b.K
	}
	if b.Corrective > s.correctiveMax {
		s.correctiveMax = b.Corrective
	}
	if s.increments%kSampleEvery == 0 && len(lp.samples) < kSampleCap {
		lp.samples = append(lp.samples, kSample{at, b.K, b.Corrective, b.Best})
	}
	s.increments++
	return b
}

// pressureBudget is the backpressure entry point: the tracing budget a
// mutator blocked on heap exhaustion owes per wait round. It does not feed
// the B window (nothing was allocated) and does not perturb the K summary —
// the pressure-scaled rate would skew the trajectory plots the ordinary tax
// produces.
func (lp *livePacer) pressureBudget(allocObjs int64) pacing.Budget {
	lp.mu.Lock()
	defer lp.mu.Unlock()
	return lp.p.PressureBudget(allocObjs)
}

func (lp *livePacer) endIncrement(doneObjs int64) {
	lp.mu.Lock()
	defer lp.mu.Unlock()
	lp.p.EndIncrement(doneObjs)
}

// noteTraced reports dedicated-tracer progress; noteBackground reports the
// throttled background tracers, which additionally feeds the B window so
// Best discounts them from the mutators' tax.
func (lp *livePacer) noteTraced(objs int64) {
	lp.mu.Lock()
	defer lp.mu.Unlock()
	lp.p.NoteTraced(objs)
}

func (lp *livePacer) noteBackground(objs int64) {
	lp.mu.Lock()
	defer lp.mu.Unlock()
	lp.p.NoteBackgroundWork(objs)
}

// endCycle feeds the predictors with the cycle's actuals and returns the
// traced volume, mirroring the simulator backend: L learns T, M learns the
// dirty-card volume.
func (lp *livePacer) endCycle(dirtyCardObjs int64) (traced int64) {
	lp.mu.Lock()
	defer lp.mu.Unlock()
	traced = lp.p.TracedWords()
	lp.p.EndCycle(traced, dirtyCardObjs)
	return traced
}

// summary returns the end-of-run digest. Driver only, after the workers
// have joined.
func (lp *livePacer) summary() pacerSummary {
	lp.mu.Lock()
	defer lp.mu.Unlock()
	return lp.sum
}

// trajectory returns the recorded K samples in time order. Mutators stamp
// the sample time before taking the gate, so neighbours can land a hair out
// of order; the flush sorts once instead of making every increment pay for
// ordering.
func (lp *livePacer) trajectory() []kSample {
	lp.mu.Lock()
	defer lp.mu.Unlock()
	out := append([]kSample(nil), lp.samples...)
	sort.Slice(out, func(i, j int) bool { return out[i].at < out[j].at })
	return out
}

// kickoffLog returns the fired kickoff decisions.
func (lp *livePacer) kickoffLog() []kickoffPoint {
	lp.mu.Lock()
	defer lp.mu.Unlock()
	return append([]kickoffPoint(nil), lp.kickoffs...)
}
