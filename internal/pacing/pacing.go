// Package pacing implements the Section 3 machinery of "A Parallel,
// Incremental and Concurrent GC for Servers" as a backend-neutral API: the
// kickoff formula free < (L+M)/K0, the per-increment progress formula
// K = (M+L-T)/F, the Best discount for background tracing, and the
// corrective term applied when tracing falls behind schedule.
//
// The package is deliberately unit-agnostic. Every quantity — heap state,
// allocation volume, tracing work — is measured in "words", where a word is
// whatever unit the backend's HeapView reports: the simulator backend
// (internal/core) feeds heap bytes, the live backend (internal/live) feeds
// whole objects. The formulas only ever relate these quantities to each
// other, so any consistent unit works; absolute defaults that depend on the
// unit (the Best sampling window) are configurable.
//
// FormulaPolicy is the one policy, and both backends drive it directly: the
// simulator (internal/core) and the live engine (internal/live). It is
// single-threaded: the simulator calls it from one goroutine by
// construction, and the live engine wraps it in its own lock (see
// internal/live's pacer gate). Two call styles are offered:
//
//   - The high-level entry points Kickoff, IncrementBudget, EndIncrement and
//     NoteBackgroundWork are the whole protocol for a backend that taxes
//     allocation: ask Kickoff at allocation points while idle, then per
//     allocation call IncrementBudget, repay the returned budget by tracing,
//     and report it with EndIncrement.
//   - The fine-grained methods (NoteAllocation, RateDetail, NoteTraced)
//     expose the same state transitions separately for backends that need
//     to interleave them differently; IncrementBudget is exactly
//     NoteAllocation followed by RateDetail.
package pacing

import (
	"mcgc/internal/stats"
)

// Config holds the Section 3 tuning parameters. All word-valued fields are
// in the caller's HeapView unit.
type Config struct {
	// K0 is the desired allocator tracing rate: words traced per word
	// allocated ("typically 5 to 10"; the paper's default runs use 8.0).
	K0 float64
	// KMax caps the adaptive rate; "typically 2*K0". Zero means 2*K0.
	KMax float64
	// C is the corrective term applied when tracing is behind schedule:
	// the rate used is K + (K-K0)*C.
	C float64
	// SmoothAlpha is the exponential smoothing factor for the L, M and
	// Best predictors.
	SmoothAlpha float64
	// InitialDirtyFraction seeds the M predictor before any history: the
	// fraction of occupied words expected to be on dirty cards (the paper
	// observes about 10% of the heap dirty when cleaning is deferred).
	InitialDirtyFraction float64
	// Headroom is added to the kickoff threshold, in words. The
	// generational extension sets it to the nursery size: old-space
	// consumption arrives in whole-nursery promotion bursts, so the
	// concurrent phase must start early enough to absorb one.
	Headroom int64
	// BestWindow is the allocation volume over which the background
	// tracing ratio B is sampled into Best (Section 3.2). Zero means
	// DefaultBestWindow, the paper's 1MB window — appropriate when words
	// are bytes; backends with coarser words set their own.
	BestWindow int64
	// PressureTaxFactor scales the tracing budget of a *blocked* allocator:
	// a mutator waiting out allocation backpressure repays its stalled
	// increment at this multiple of the ordinary rate, so the debtors that
	// drove the heap to exhaustion do the catch-up tracing instead of the
	// whole population slowing uniformly. Zero means DefaultPressureTax.
	PressureTaxFactor float64
}

// DefaultBestWindow is the B-sampling window used when Config.BestWindow is
// zero: 1MB, matching the paper when words are bytes.
const DefaultBestWindow = 1 << 20

// DefaultPressureTax is the PressureTaxFactor used when the config leaves it
// zero: blocked allocators repay at twice the ordinary rate.
const DefaultPressureTax = 2.0

// Default returns the configuration used in the paper's default runs.
func Default() Config {
	return Config{
		K0:                   8.0,
		C:                    1.0,
		SmoothAlpha:          0.4,
		InitialDirtyFraction: 0.05,
	}
}

// EffectiveKMax resolves the KMax default: 2*K0 when unset.
func (c Config) EffectiveKMax() float64 {
	if c.KMax > 0 {
		return c.KMax
	}
	return 2 * c.K0
}

func (c Config) bestWindow() int64 {
	if c.BestWindow > 0 {
		return c.BestWindow
	}
	return DefaultBestWindow
}

// EffectivePressureTax resolves the PressureTaxFactor default.
func (c Config) EffectivePressureTax() float64 {
	if c.PressureTaxFactor > 0 {
		return c.PressureTaxFactor
	}
	return DefaultPressureTax
}

// HeapView is the narrow heap interface the pacer reads. Both methods are
// sampled at every decision point, so they should be cheap; they are called
// only from whatever goroutine drives the policy.
type HeapView interface {
	// FreeWords is F: the memory currently available to allocation.
	FreeWords() int64
	// OccupiedWords is the allocated volume the predictors seed from
	// before any cycle history exists.
	OccupiedWords() int64
}

// Budget is one increment's tracing assignment: the work the allocating
// thread must repay, plus the intermediate terms telemetry records.
type Budget struct {
	// Words is the tracing volume owed for this allocation: K times the
	// allocation size, zero when the background threads are keeping up.
	Words int64
	// K is the rate the progress formula produced (after discount,
	// correction and clamping).
	K float64
	// Corrective is the (K-K0)*C addition applied because tracing fell
	// behind K0, zero otherwise.
	Corrective float64
	// Best is the smoothed background tracing rate discounted from K.
	Best float64
}

// FormulaPolicy implements the kickoff and progress formulas of Section 3.1
// and the background-tracing accounting of Section 3.2: the paper's pacing
// policy, driven purely by heap geometry. Construct with NewFormula; not
// safe for concurrent use.
type FormulaPolicy struct {
	cfg  Config
	heap HeapView

	// L predicts the words to be traced in the concurrent phase; M
	// predicts the words on dirty cards that must additionally be
	// scanned. Both are exponential smoothing averages of past cycles.
	l *stats.ExpSmooth
	m *stats.ExpSmooth

	// best is the smoothed ratio of background tracing to mutator
	// allocation ("Best ... used as a prediction for the near-future
	// tracing rate of the background threads").
	best *stats.ExpSmooth

	// Per-cycle progress state.
	traced int64 // T: words traced since the concurrent phase began

	// Background measurement window.
	windowAlloc int64
	windowBg    int64
}

// NewFormula builds the Section 3 formula policy over the given heap view.
func NewFormula(cfg Config, heap HeapView) *FormulaPolicy {
	return &FormulaPolicy{
		cfg:  cfg,
		heap: heap,
		l:    stats.NewExpSmooth(cfg.SmoothAlpha),
		m:    stats.NewExpSmooth(cfg.SmoothAlpha),
		best: stats.NewExpSmooth(cfg.SmoothAlpha),
	}
}

// Config returns the configuration the pacer was built with.
func (p *FormulaPolicy) Config() Config { return p.cfg }

// Predictions returns the current L and M estimates, seeding them from the
// heap state when no history exists.
func (p *FormulaPolicy) Predictions() (l, m float64) {
	occupied := p.heap.OccupiedWords()
	l = p.l.Value()
	if !p.l.Primed() {
		l = float64(occupied)
	}
	m = p.m.Value()
	if !p.m.Primed() {
		m = p.cfg.InitialDirtyFraction * float64(occupied)
	}
	return l, m
}

// KickoffThreshold returns the free-memory level below which the concurrent
// phase starts: (L+M)/K0 plus the configured headroom.
func (p *FormulaPolicy) KickoffThreshold() float64 {
	l, m := p.Predictions()
	return (l+m)/p.cfg.K0 + float64(p.cfg.Headroom)
}

// Kickoff evaluates the kickoff formula against the current heap state:
// start the concurrent phase when free memory drops below (L+M)/K0.
func (p *FormulaPolicy) Kickoff() bool {
	return float64(p.heap.FreeWords()) < p.KickoffThreshold()
}

// StartCycle resets the per-cycle progress state. Call when the concurrent
// phase begins.
func (p *FormulaPolicy) StartCycle() {
	p.traced = 0
	p.windowAlloc = 0
	p.windowBg = 0
}

// NoteTraced accounts tracing work from any participant (T accumulates
// mutator, dedicated and background tracing alike).
func (p *FormulaPolicy) NoteTraced(words int64) { p.traced += words }

// EndIncrement reports the tracing work an increment actually performed
// against its budget. It is NoteTraced under the name the allocation-tax
// protocol uses; a backend that could not repay the full budget simply
// reports less, and the progress formula compensates on the next increment.
func (p *FormulaPolicy) EndIncrement(doneWords int64) { p.NoteTraced(doneWords) }

// NoteBackgroundWork accounts background-thread tracing: it advances T and
// feeds the B window so Best discounts the background threads' near-future
// rate from the mutators' tax.
func (p *FormulaPolicy) NoteBackgroundWork(words int64) {
	p.traced += words
	p.windowBg += words
}

// NoteAllocation feeds the allocation side of the B window; when the window
// is full, B is sampled into Best.
func (p *FormulaPolicy) NoteAllocation(words int64) {
	p.windowAlloc += words
	if p.windowAlloc >= p.cfg.bestWindow() {
		b := float64(p.windowBg) / float64(p.windowAlloc)
		p.best.Add(b)
		p.windowAlloc = 0
		p.windowBg = 0
	}
}

// IncrementBudget is the allocation-tax entry point: feed the allocation
// into the B window, evaluate the progress formula, and return the tracing
// budget the allocator owes. Repay it by tracing, then call EndIncrement
// with the work actually done.
func (p *FormulaPolicy) IncrementBudget(allocWords int64) Budget {
	p.NoteAllocation(allocWords)
	k, corrective, best := p.RateDetail()
	return Budget{
		Words:      int64(k * float64(allocWords)),
		K:          k,
		Corrective: corrective,
		Best:       best,
	}
}

// PressureBudget is the backpressure variant of IncrementBudget: the tracing
// budget a mutator owes while it is *blocked* on an exhausted heap, waiting
// for the collector to free its stalled allocation. The allocation is not
// fed into the B window — nothing was actually allocated yet — and the rate
// is scaled by PressureTaxFactor with a floor of the stalled volume itself,
// so a blocked debtor always contributes at least one batch of tracing per
// wait round even when the progress formula reads zero.
func (p *FormulaPolicy) PressureBudget(allocWords int64) Budget {
	k, corrective, best := p.RateDetail()
	words := int64(k * p.cfg.EffectivePressureTax() * float64(allocWords))
	if words < allocWords {
		words = allocWords
	}
	return Budget{Words: words, K: k, Corrective: corrective, Best: best}
}

// Rate evaluates the progress formula and the background discount, and
// returns the tracing rate a mutator must apply to its current allocation:
// words of tracing per word allocated.
//
//	K = (M + L - T) / F      (negative => KMax: L or M were underestimated)
//	if K < Best: K = 0       (background threads are keeping up)
//	else:        K -= Best
//	if K > K0:   K += (K-K0)*C, capped at KMax
func (p *FormulaPolicy) Rate() float64 {
	k, _, _ := p.RateDetail()
	return k
}

// RateDetail is Rate plus the intermediate terms the telemetry layer
// records: the corrective addition applied when tracing fell behind K0, and
// the Best discount in effect.
func (p *FormulaPolicy) RateDetail() (k, corrective, best float64) {
	l, m := p.Predictions()
	kmax := p.cfg.EffectiveKMax()
	best = p.best.Value()
	// The headroom shifts the completion target: tracing should finish
	// while that much free memory remains (one promotion burst, under the
	// generational extension), not at the exact moment of exhaustion.
	free := p.heap.FreeWords() - p.cfg.Headroom
	if free <= 0 {
		return kmax, 0, best
	}
	k = (m + l - float64(p.traced)) / float64(free)
	if k < 0 {
		return kmax, 0, best
	}
	if k < best {
		return 0, 0, best
	}
	k -= best
	if k > p.cfg.K0 {
		corrective = (k - p.cfg.K0) * p.cfg.C
		k += corrective
	}
	if k > kmax {
		k = kmax
	}
	return k, corrective, best
}

// EndCycle records the cycle's actual traced volume and dirty-card volume
// into the L and M predictors.
func (p *FormulaPolicy) EndCycle(tracedWords, dirtyCardWords int64) {
	p.l.Add(float64(tracedWords))
	p.m.Add(float64(dirtyCardWords))
}

// TracedWords returns T, the tracing volume accumulated this cycle.
func (p *FormulaPolicy) TracedWords() int64 { return p.traced }

// Best returns the smoothed background tracing rate (zero before the first
// full window).
func (p *FormulaPolicy) Best() float64 { return p.best.Value() }

// BestPrimed reports whether Best has absorbed at least one full window.
func (p *FormulaPolicy) BestPrimed() bool { return p.best.Primed() }
