package live

import (
	"fmt"
	"sync/atomic"
	"time"

	"mcgc/internal/faultinject"
	"mcgc/internal/vtime"
)

// engineStats are the counters shared by mutator, tracer and driver
// goroutines; everything here is atomic. Driver-only measurements (pauses,
// per-cycle oracle results) go straight into the Report.
type engineStats struct {
	marks          atomic.Int64 // objects claimed grey
	scans          atomic.Int64 // objects scanned from the pool
	rescans        atomic.Int64 // objects rescanned by card cleaning
	deferred       atomic.Int64 // unsafe objects pushed to the deferred pool
	deferredDrains atomic.Int64 // DrainDeferred invocations that found work
	deferOverflows atomic.Int64 // deferred pushes degraded to card dirtying
	overflows      atomic.Int64 // pushes degraded to mark+dirty (Section 4.3)
	cardPasses     atomic.Int64 // concurrent cleaning passes

	markNs   atomic.Int64 // concurrent mark phase wall time
	sweepNs  atomic.Int64 // concurrent sweep wall time
	activeNs atomic.Int64 // full markingActive window (mark + STW final + oracle)

	objectsAllocated atomic.Int64
	objectsFreed     atomic.Int64
	allocFailed      atomic.Int64
	allocFences      atomic.Int64 // one per published batch (Section 5.2)
	forcedFences     atomic.Int64 // one per mutator per handshake (5.3)
	mutatorOps       atomic.Int64

	pressureKicks atomic.Int64 // idle waits cut short by allocation pressure
	rescanRedirty atomic.Int64 // card rescans re-dirtied for unpublished objects

	// Degradation-ladder counters (degrade.go): rung-1 blocked-allocation
	// waits (and how many expired unfed), the total time spent blocked, and
	// rung-2 emergency STW collections.
	backpressureWaits    atomic.Int64
	backpressureTimeouts atomic.Int64
	backpressureNs       atomic.Int64
	emergencyCycles      atomic.Int64

	// Per-party tracing attribution: each successful scanObject charges its
	// slot words to exactly one of these, so their sum reconciles with
	// scans times the per-object slot count.
	traceMutatorWords   atomic.Int64 // scans paid as mutator allocation tax
	traceBgWords        atomic.Int64 // scans by throttled background tracers
	traceDedicatedWords atomic.Int64 // scans by dedicated tracers

	kickoffs        atomic.Int64 // cycles started by the kickoff formula
	pacedIncrements atomic.Int64 // allocation increments that consulted the pacer
}

// Report is what one Engine.Run hands back.
type Report struct {
	Cycles     int
	MutatorOps int64

	ObjectsAllocated int64
	ObjectsFreed     int64
	AllocFailed      int64

	Marks    int64
	Scans    int64
	Rescans  int64
	Deferred int64
	// FinalMarks is the part of Marks made inside the STW final pauses of
	// concurrent cycles (emergency collections excluded: they mark
	// everything in their pause). It is the marking the concurrent phase
	// left behind.
	FinalMarks int64

	DeferredDrains int64
	Overflows      int64
	DeferOverflows int64
	CardPasses     int64

	CardsRegistered int64
	CardsCleaned    int64
	BarrierMarks    int64

	AllocFences  int64
	ForcedFences int64

	PoolCASRetries     int64
	FreeListRetries    int64
	PoolMaxInUse       int64
	PoolReturnFences   int64
	TracerSwapFallback int64

	// Sharding-tier counters: the local packet caches (hits, steals from
	// sibling caches, batch spills to the global pool), the free-list
	// shards (batch pops served by a non-home shard) and the write-barrier
	// card buffers (non-empty flushes).
	PoolLocalHits     int64
	PoolSteals        int64
	PoolSpills        int64
	PoolRefills       int64
	ArenaShardSteals  int64
	CardBufferFlushes int64

	LiveAtEnd     int
	FloatingTotal int64
	FloatingMax   int64
	LostObjects   int64
	// Violations holds the first few oracle findings verbatim (empty on a
	// correct run).
	Violations []string

	STWCount   int
	STWTotal   time.Duration
	STWMax     time.Duration
	MarkTotal  time.Duration // concurrent mark phases
	SweepTotal time.Duration
	// TracerActiveTotal is the full markingActive window — concurrent mark
	// plus STW final and the oracle — during which tracers may accrue idle
	// time. It is the denominator of the -balance idle fraction.
	TracerActiveTotal time.Duration

	// PressureKicks counts idle periods cut short because a mutator hit
	// allocation failure and signalled for an early collection.
	PressureKicks int64

	// Degradation-ladder results. BackpressureWaits counts rung-1 blocked
	// allocations (BackpressureTimeouts of which expired without memory);
	// BackpressureTotal is the summed stall time. EmergencyCycles counts
	// rung-2 synchronous full STW collections. TimeOK/TimeBackpressure/
	// TimeEmergency is the run's wall time split by ladder state.
	BackpressureWaits    int64
	BackpressureTimeouts int64
	BackpressureTotal    time.Duration
	EmergencyCycles      int64
	TimeOK               time.Duration
	TimeBackpressure     time.Duration
	TimeEmergency        time.Duration
	// DirectDirties is the card table's count of degradation-path dirtying
	// (DirtyCardAtomic); it must reconcile with Overflows + DeferOverflows +
	// RescanRedirties, the engine-side counts of the same three callers.
	DirectDirties   int64
	RescanRedirties int64

	// Per-party tracing attribution (the counters behind trace.mutator_words
	// / trace.bg_words / trace.dedicated_words): TraceMutatorWords +
	// TraceBgWords + TraceDedicatedWords == Scans * RefsPerObject.
	TraceMutatorWords   int64
	TraceBgWords        int64
	TraceDedicatedWords int64

	// Pacing (Section 3) results; meaningful when PacingEnabled.
	PacingEnabled   bool
	Kickoffs        int64   // cycles started by free < (L+M)/K0
	PacedIncrements int64   // allocation increments that consulted the pacer
	KFirst, KLast   float64 // progress-formula rate at the first/last increment
	KMin, KMax      float64 // rate range over the run
	CorrectiveMax   float64 // largest (K-K0)*C catch-up addition applied

	// Wedged reports that the termination watchdog aborted the run;
	// WedgePhase and WedgeDiagnosis say where and what the state looked like.
	Wedged         bool
	WedgePhase     string
	WedgeDiagnosis string

	// Faults holds the per-site fault-injection counters (nil when the run
	// had no chaos plan).
	Faults []faultinject.PointStat

	// Workers holds each tracing party's full-run work-flow ledger (nil when
	// accounting is off — no registry, timeline or fault plan); TermLatencyNs
	// holds one termination-detection latency sample per cycle where some
	// tracer drained early.
	Workers       []WorkerAccount
	TermLatencyNs []int64
}

func (e *Engine) noteSTW(start, end int64) {
	d := time.Duration(end - start)
	e.report.STWCount++
	e.report.STWTotal += d
	if d > e.report.STWMax {
		e.report.STWMax = d
	}
	// Same gauge name as the simulator backend, so gcstats metrics computes
	// pause percentiles and MMU for live runs unchanged.
	e.cfg.Reg.Gauge("gc.pause_ns").Sample(vtime.Time(start), float64(end-start))
}

func (e *Engine) noteCycle(res OracleResult, freed int, at int64) {
	e.report.Cycles++
	e.report.LiveAtEnd = res.Live
	e.report.FloatingTotal += int64(res.Floating)
	if int64(res.Floating) > e.report.FloatingMax {
		e.report.FloatingMax = int64(res.Floating)
	}
	e.report.LostObjects += int64(res.Lost)
	e.sampleCycle(res, freed, at)
}

func (e *Engine) finishReport() {
	r := &e.report
	s := &e.stats
	r.MutatorOps = s.mutatorOps.Load()
	r.ObjectsAllocated = s.objectsAllocated.Load()
	r.ObjectsFreed = s.objectsFreed.Load()
	r.AllocFailed = s.allocFailed.Load()
	r.Marks = s.marks.Load()
	r.Scans = s.scans.Load()
	r.Rescans = s.rescans.Load()
	r.Deferred = s.deferred.Load()
	r.DeferredDrains = s.deferredDrains.Load()
	r.Overflows = s.overflows.Load()
	r.DeferOverflows = s.deferOverflows.Load()
	r.CardPasses = s.cardPasses.Load()
	r.AllocFences = s.allocFences.Load()
	r.ForcedFences = s.forcedFences.Load()
	r.MarkTotal = time.Duration(s.markNs.Load())
	r.SweepTotal = time.Duration(s.sweepNs.Load())
	r.TracerActiveTotal = time.Duration(s.activeNs.Load())

	r.PressureKicks = s.pressureKicks.Load()
	r.RescanRedirties = s.rescanRedirty.Load()

	r.BackpressureWaits = s.backpressureWaits.Load()
	r.BackpressureTimeouts = s.backpressureTimeouts.Load()
	r.BackpressureTotal = time.Duration(s.backpressureNs.Load())
	r.EmergencyCycles = s.emergencyCycles.Load()
	inState, _ := e.deg.snapshot(e.now())
	r.TimeOK = time.Duration(inState[DegOK])
	r.TimeBackpressure = time.Duration(inState[DegBackpressure])
	r.TimeEmergency = time.Duration(inState[DegEmergency])

	r.TraceMutatorWords = s.traceMutatorWords.Load()
	r.TraceBgWords = s.traceBgWords.Load()
	r.TraceDedicatedWords = s.traceDedicatedWords.Load()
	if e.pacer != nil {
		r.PacingEnabled = true
		r.Kickoffs = s.kickoffs.Load()
		sum := e.pacer.summary()
		r.PacedIncrements = sum.increments
		r.KFirst, r.KLast = sum.kFirst, sum.kLast
		r.KMin, r.KMax = sum.kMin, sum.kMax
		r.CorrectiveMax = sum.correctiveMax
	}

	cs := &e.arena.Cards.AtomicStats
	r.CardsRegistered = cs.CardsRegistered.Load()
	r.CardsCleaned = cs.CardsCleaned.Load()
	r.BarrierMarks = cs.BarrierMarks.Load()
	r.DirectDirties = cs.DirectDirties.Load()

	r.Faults = e.cfg.Faults.Snapshot()

	ps := &e.pool.Stats
	r.PoolCASRetries = ps.CASRetries.Load()
	r.PoolMaxInUse = ps.MaxInUse.Load()
	r.PoolReturnFences = ps.ReturnFences.Load()
	r.FreeListRetries = e.arena.FreeListRetries()

	ls := e.pool.LocalStatsSum()
	r.PoolLocalHits = ls.Hits
	r.PoolSteals = ls.Steals
	r.PoolSpills = ls.Spills
	r.PoolRefills = ls.Refills
	r.ArenaShardSteals = e.arena.ShardSteals()
	r.CardBufferFlushes = cs.BufferFlushes.Load()

	e.finishAccounting()
	e.flushTelemetry()
}

// String formats the report the way gcstress prints it.
func (r Report) String() string {
	oracle := "oracle: every cycle's live set ⊆ concurrent mark set"
	if r.LostObjects > 0 {
		oracle = fmt.Sprintf("ORACLE FAILED: %d live objects lost", r.LostObjects)
	}
	out := fmt.Sprintf(
		"cycles %d  mutator ops %d  alloc %d  freed %d  (alloc failed %d, pressure kicks %d)\n"+
			"marks %d  scans %d  rescans %d  deferred %d\n"+
			"trace words: mutator %d  bg %d  dedicated %d\n"+
			"overflows %d (defer %d, rescan redirty %d)  card passes %d  cards reg/cleaned %d/%d  barrier marks %d\n"+
			"fences: alloc %d  forced %d  pool-return %d\n"+
			"contention: pool CAS retries %d  free-list retries %d  pool max in use %d\n"+
			"floating garbage: total %d  max/cycle %d  live at end %d\n"+
			"pauses: %d  total %v  max %v  (concurrent: mark %v  sweep %v)\n%s",
		r.Cycles, r.MutatorOps, r.ObjectsAllocated, r.ObjectsFreed, r.AllocFailed, r.PressureKicks,
		r.Marks, r.Scans, r.Rescans, r.Deferred,
		r.TraceMutatorWords, r.TraceBgWords, r.TraceDedicatedWords,
		r.Overflows, r.DeferOverflows, r.RescanRedirties, r.CardPasses, r.CardsRegistered, r.CardsCleaned, r.BarrierMarks,
		r.AllocFences, r.ForcedFences, r.PoolReturnFences,
		r.PoolCASRetries, r.FreeListRetries, r.PoolMaxInUse,
		r.FloatingTotal, r.FloatingMax, r.LiveAtEnd,
		r.STWCount, r.STWTotal.Round(time.Microsecond), r.STWMax.Round(time.Microsecond),
		r.MarkTotal.Round(time.Microsecond), r.SweepTotal.Round(time.Microsecond),
		oracle)
	if r.PoolLocalHits+r.PoolSteals+r.PoolSpills+r.ArenaShardSteals+r.CardBufferFlushes > 0 {
		out += fmt.Sprintf("\nsharding: local hits %d  steals %d  spills %d (refills %d)  shard steals %d  card flushes %d",
			r.PoolLocalHits, r.PoolSteals, r.PoolSpills, r.PoolRefills, r.ArenaShardSteals, r.CardBufferFlushes)
	}
	if r.PacingEnabled {
		out += fmt.Sprintf("\npacing: kickoffs %d  increments %d  K first %.2f  last %.2f  range [%.2f, %.2f]  corrective max %.2f",
			r.Kickoffs, r.PacedIncrements, r.KFirst, r.KLast, r.KMin, r.KMax, r.CorrectiveMax)
	}
	if r.BackpressureWaits+r.EmergencyCycles > 0 {
		out += fmt.Sprintf("\nladder: backpressure waits %d (timeouts %d, stalled %v)  emergency cycles %d  time bp/emerg %v/%v",
			r.BackpressureWaits, r.BackpressureTimeouts, r.BackpressureTotal.Round(time.Microsecond),
			r.EmergencyCycles, r.TimeBackpressure.Round(time.Microsecond), r.TimeEmergency.Round(time.Microsecond))
	}
	if bal := r.balanceSummary(); bal != "" {
		out += "\n" + bal
	}
	if len(r.Faults) > 0 {
		out += "\nfaults:"
		for _, p := range r.Faults {
			out += fmt.Sprintf("  %s %d/%d", p.Name, p.Fires, p.Hits)
			if p.Jitters > 0 {
				out += fmt.Sprintf(" (jitter %d)", p.Jitters)
			}
		}
	}
	if r.Wedged {
		out += "\n" + r.WedgeDiagnosis
	}
	return out
}
