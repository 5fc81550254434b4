package live

import (
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mcgc/internal/cardtable"
	"mcgc/internal/faultinject"
	"mcgc/internal/heapsim"
	"mcgc/internal/pacing"
	"mcgc/internal/telemetry"
	"mcgc/internal/workpack"
)

// ShardingOptions groups the hot-shared-structure knobs: how aggressively
// the per-worker tiers front the global pool, free list and card table.
type ShardingOptions struct {
	// LocalCache sizes the per-worker packet caches (workpack.LocalPool):
	// each tracing goroutine — and, with pacing, each mutator — fronts the
	// shared pool with a cache of this many packets per class. 0 picks
	// DefaultLocalCache clamped so the caches together cannot hoard more
	// than half the pool; negative disables the local tier.
	LocalCache int
	// FreeShards is the arena free-list shard count (rounded down to a
	// power of two, capped at MaxFreeShards). 0 picks DefaultFreeShards;
	// negative forces a single shard — the pre-sharding layout.
	FreeShards int
	// CardBuffer sizes the per-mutator write-barrier card buffers, flushed
	// at fence handshakes and safepoints. 0 picks the default (64);
	// negative disables buffering (every barrier dirties the table).
	CardBuffer int
}

// PacingOptions groups the pacing selection: the Section 3 formula when
// Pacing is set, else none (cycles start on the idle timer).
type PacingOptions struct {
	// Pacing enables the Section 3 pacer (nil disables). With pacing on,
	// cycles start when the kickoff formula fires instead of on the idle
	// timer, mutators pay a tracing tax at every allocation-cache refill
	// (IncrementBudget, repaid by draining work packets inline before the
	// refill returns), and background tracers report through
	// NoteBackgroundWork so Best discounts them. The pacing word unit for
	// this backend is one heap object.
	Pacing *pacing.Config

	// DisableCollection runs the workload with the collector off: no
	// cycles, no pacing, no write-barrier marking work — allocation simply
	// consumes the arena. This is the cost-distillation baseline (Cai &
	// Blackburn): size the arena so the run never exhausts it, and the
	// delta against an identical collected run is the collector's real
	// cost. Pacing is ignored when set.
	DisableCollection bool
}

// LadderOptions groups the graceful-degradation ladder.
type LadderOptions struct {
	// Ladder configures the graceful-degradation ladder (see degrade.go):
	// allocation backpressure on heap exhaustion and emergency STW
	// collection when backpressure fails. Disabled by default — the zero
	// value keeps the historical fail-fast allocation behavior.
	Ladder LadderConfig
}

// FaultOptions groups fault injection and the watchdog that catches what
// the faults wedge.
type FaultOptions struct {
	// Faults is an optional fault-injection plan (nil disables). Its points
	// are threaded through the engine, the packet pool and the card table.
	Faults *faultinject.Plan

	// WedgeTimeout is how long tracing may make zero progress mid-cycle
	// before the watchdog declares the cycle wedged, dumps diagnostics and
	// aborts the run. It must exceed any injected stall delay.
	WedgeTimeout time.Duration
}

// ObserveOptions groups the driver-owned telemetry sinks.
type ObserveOptions struct {
	// Reg and TL are optional driver-owned telemetry (nil disables; both
	// are nil-safe). Accounting ledgers arm when either is set or a fault
	// plan is.
	Reg *telemetry.Registry
	TL  *telemetry.Timeline
}

// Config sizes one live-engine run. Zero fields take the defaults below.
// The knobs beyond the core workload shape live in embedded option groups
// (sharding, pacing, ladder, faults, observation); their fields are
// promoted, so cfg.LocalCache and friends read and assign exactly as
// before — only composite literals name the group. Validate checks the
// whole config with one error vocabulary; the With* constructors build the
// groups field-by-field for callers that predate them.
type Config struct {
	Objects         int // arena size in objects
	RefsPerObject   int // reference slots per object
	RootsPerMutator int // root slots per mutator goroutine

	Mutators  int // mutator goroutines
	Tracers   int // dedicated tracing goroutines
	BgTracers int // low-priority (throttled) tracing goroutines

	// ExtMutators is the number of externally driven mutators: the engine
	// builds their per-mutator state (roots, allocation cache, card buffer,
	// tax ledger) but spawns no goroutine for them. The caller obtains a
	// handle per slot via ExtMutator and drives it from its own goroutine —
	// the server workload's request handlers are mutators of this heap. Every
	// external mutator counts toward safepoints and fence handshakes from the
	// moment Run starts, so each one must be actively polled (Mut.Poll) for
	// the whole run and retired (Mut.Retire) once ShuttingDown reports true;
	// Run does not return until all of them have retired.
	ExtMutators int

	Packets   int // work packet count (small values force overflow)
	PacketCap int // entries per packet

	AllocBatch int // allocation-bit publication batch (Section 5.2)
	// CardPasses is the number of concurrent cleaning passes per cycle
	// (Section 5.3). Passes that only clean the collector's own packet
	// overflow backlog run on top of it (see runCycle).
	CardPasses int

	Duration   time.Duration // total run length (the last cycle may overrun)
	IdlePeriod time.Duration // mutator-only churn between cycles
	BgThrottle time.Duration // sleep between background-tracer packets

	Seed  int64
	Shape string // workload shape: "mixed", "churn" or "pointer"

	ShardingOptions
	PacingOptions
	LadderOptions
	FaultOptions
	ObserveOptions
}

// WithSharding returns a copy of c with the sharding knobs set.
func (c Config) WithSharding(localCache, freeShards, cardBuffer int) Config {
	c.ShardingOptions = ShardingOptions{LocalCache: localCache, FreeShards: freeShards, CardBuffer: cardBuffer}
	return c
}

// WithFormulaPacing returns a copy of c paced by the Section 3 formula.
func (c Config) WithFormulaPacing(pc pacing.Config) Config {
	c.PacingOptions.Pacing = &pc
	return c
}

// WithLadder returns a copy of c with the degradation ladder configured.
func (c Config) WithLadder(l LadderConfig) Config {
	c.LadderOptions = LadderOptions{Ladder: l}
	return c
}

// WithFaults returns a copy of c with the fault plan and watchdog set.
func (c Config) WithFaults(plan *faultinject.Plan, wedgeTimeout time.Duration) Config {
	c.FaultOptions = FaultOptions{Faults: plan, WedgeTimeout: wedgeTimeout}
	return c
}

// WithSinks returns a copy of c with the telemetry sinks attached.
func (c Config) WithSinks(reg *telemetry.Registry, tl *telemetry.Timeline) Config {
	c.ObserveOptions = ObserveOptions{Reg: reg, TL: tl}
	return c
}

// pacingEnabled reports whether this run paces allocation at all: the
// formula is configured and collection is not disabled.
func (c Config) pacingEnabled() bool {
	return !c.DisableCollection && c.Pacing != nil
}

// cfgErr builds one entry of the config error vocabulary: every problem
// Validate reports reads "live: config: <field>: <problem>".
func cfgErr(field, format string, args ...any) error {
	return fmt.Errorf("live: config: %s: %s", field, fmt.Sprintf(format, args...))
}

// Validate checks the whole configuration — core shape and every option
// group — in one pass and returns every problem found, joined. It validates
// the config as given; defaults are applied afterwards, so zero values that
// mean "pick the default" are legal.
func (c Config) Validate() error {
	var errs []error
	bad := func(field, format string, args ...any) {
		errs = append(errs, cfgErr(field, format, args...))
	}
	if c.Objects < 0 {
		bad("Objects", "negative arena size %d", c.Objects)
	}
	if c.RefsPerObject < 0 {
		bad("RefsPerObject", "negative slot count %d", c.RefsPerObject)
	}
	if c.Mutators < 0 {
		bad("Mutators", "negative count %d", c.Mutators)
	}
	if c.ExtMutators < 0 {
		bad("ExtMutators", "negative count %d", c.ExtMutators)
	}
	if c.Tracers < 0 {
		bad("Tracers", "negative count %d", c.Tracers)
	}
	if c.BgTracers < 0 {
		bad("BgTracers", "negative count %d", c.BgTracers)
	}
	if c.Packets < 0 {
		bad("Packets", "negative count %d", c.Packets)
	}
	if c.PacketCap < 0 {
		bad("PacketCap", "negative capacity %d", c.PacketCap)
	}
	if c.CardPasses < 0 {
		bad("CardPasses", "negative pass count %d", c.CardPasses)
	}
	if c.Duration < 0 {
		bad("Duration", "negative run length %v", c.Duration)
	}
	if c.Pacing != nil && c.Pacing.K0 <= 0 {
		bad("Pacing.K0", "tracing rate must be positive, got %g", c.Pacing.K0)
	}
	if c.WedgeTimeout < 0 {
		bad("WedgeTimeout", "negative timeout %v", c.WedgeTimeout)
	}
	return errors.Join(errs...)
}

func (c Config) withDefaults() Config {
	def := func(p *int, v int) {
		if *p == 0 {
			*p = v
		}
	}
	def(&c.Objects, 1<<15)
	def(&c.RefsPerObject, 4)
	def(&c.RootsPerMutator, 16)
	if c.Mutators == 0 && c.ExtMutators == 0 {
		// A run driven entirely by external mutators keeps Mutators at zero;
		// the synthetic-churn default only applies when nobody else mutates.
		c.Mutators = 4
	}
	def(&c.Tracers, 2)
	def(&c.Packets, 64)
	def(&c.PacketCap, 32)
	def(&c.AllocBatch, 16)
	def(&c.CardPasses, 2)
	if c.Duration == 0 {
		c.Duration = 2 * time.Second
	}
	if c.IdlePeriod == 0 {
		c.IdlePeriod = 2 * time.Millisecond
	}
	if c.BgThrottle == 0 {
		c.BgThrottle = 200 * time.Microsecond
	}
	if c.Shape == "" {
		c.Shape = "mixed"
	}
	if c.WedgeTimeout == 0 {
		c.WedgeTimeout = 5 * time.Second
	}
	c.Ladder = c.Ladder.withDefaults(c.AllocBatch)
	return c
}

// Engine runs the mostly-concurrent collector on a real shared heap with
// real goroutines. Construct with NewEngine, execute with Run.
type Engine struct {
	cfg   Config
	arena *Arena
	pool  *workpack.Pool

	// markingActive gates the write barrier and wakes the tracers. It only
	// changes while the world is stopped, so every mutator op sees a
	// consistent value for its whole duration.
	markingActive atomic.Bool
	shutdown      atomic.Bool

	// Safepoint machinery: stopFlag is the mutators' fast-path check;
	// stopWorld/parked/activeMuts are the slow path under mu.
	mu         sync.Mutex
	cond       *sync.Cond
	stopWorld  bool
	stopFlag   atomic.Bool
	parked     int
	activeMuts int

	// fenceEpoch implements the card-cleaning handshake (Section 5.3 step
	// 2): the driver bumps it, every mutator acknowledges with an atomic
	// store at its next op boundary (publishing its allocation batch while
	// at it), and the driver waits for all acknowledgements.
	fenceEpoch atomic.Int64

	// pacer is the pacing policy behind its serialization gate; nil when no
	// policy is configured (cycles then start on the idle timer) and when
	// collection is disabled.
	pacer *livePacer

	// muts holds every mutator: indices [0,cfg.Mutators) run the synthetic
	// workload on engine goroutines; the rest are externally driven (Mut
	// handles). extWG tracks the external ones — Run cannot finish its
	// report until every handle has retired, because retirement is what
	// returns their allocation caches and flushes their card buffers.
	muts    []*mutator
	wg      sync.WaitGroup
	extWG   sync.WaitGroup
	start   time.Time
	stats   engineStats
	cardBuf []int

	// extraRoots are collector root blocks owned by external code (a server
	// store's per-shard bucket heads), registered via NewRootSet before Run.
	extraRoots []*RootSet
	running    atomic.Bool

	// localCap is the resolved per-worker packet cache capacity (0 when the
	// local tier is disabled); cardBufCap likewise for the write-barrier
	// card buffers.
	localCap   int
	cardBufCap int

	// fi holds the engine's resolved fault points (each nil when disabled).
	fi engineFaults

	// accounts holds the per-worker work-flow ledgers (nil when accounting
	// is off — no Reg, no TL, no fault plan).
	accounts []*workerAccount
	// cycleScanBase snapshots the scan counter at each cycle's STW init;
	// firstDoneNs is CAS-claimed by the first tracer that contributed scans
	// this cycle and then found the pool dry, and reset by the driver when
	// recirculation (deferred drains, card passes) hands work back. The gap
	// to the driver's TracingDone observation is the cycle's
	// termination-detection latency.
	cycleScanBase atomic.Int64
	firstDoneNs   atomic.Int64
	// cycleSeq increments at every mark kickoff; a tracer only charges an
	// idle nap to its ledger when the nap ends in the same cycle it began,
	// so naps straddling a phase boundary never bill non-mark time as idle.
	cycleSeq atomic.Int64
	// memPressure is set by mutators on allocation failure; the driver's
	// inter-cycle wait polls it and kicks off the next collection early
	// (trigger-collection-and-retry instead of spinning on a full heap).
	memPressure atomic.Bool
	// worldStopped tracks whether the driver currently holds the world at a
	// safepoint; only the driver touches it (the wedge abort path must know
	// whether to resume before shutting down).
	worldStopped bool

	// deg tracks the degradation-ladder state (rung, time-in-state, blocked
	// waiters, backpressure stall samples); see degrade.go. The escalation
	// counters below it are driver-only: consecutive starved pressured
	// cycles, and the backpressure-timeout watermark of the last check.
	deg            degTracker
	starvedCycles  int
	lastBPTimeouts int64
	lastFreed      int

	oracleMarks *oracleScratch
	toFree      []heapsim.Addr // collectGarbage's reused garbage list
	report      Report
}

// engineFaults are the live-engine-level fault points, resolved once at
// construction. Nil pointers are individually disabled sites.
type engineFaults struct {
	tracerStall    *faultinject.Point
	fenceDelay     *faultinject.Point
	safepointStall *faultinject.Point
	bgStarve       *faultinject.Point
	allocFail      *faultinject.Point
	wedge          *faultinject.Point
	hoard          *faultinject.Point
	overload       *faultinject.Point
	emergencyStall *faultinject.Point
}

// NewEngine validates the config and builds the arena, pool and workers.
// An invalid config panics with the joined Validate error; callers that
// want the error instead should call Validate themselves first.
func NewEngine(cfg Config) *Engine {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	cfg = cfg.withDefaults()
	if cfg.Mutators+cfg.ExtMutators < 1 {
		panic(cfgErr("Mutators", "need at least one mutator (internal or external)"))
	}
	if cfg.Tracers+cfg.BgTracers < 1 {
		panic(cfgErr("Tracers", "need at least one tracing goroutine"))
	}
	e := &Engine{
		cfg:   cfg,
		arena: NewArenaShards(cfg.Objects, cfg.RefsPerObject, cfg.FreeShards),
		pool:  workpack.NewPool(cfg.Packets, cfg.PacketCap),
	}
	e.cond = sync.NewCond(&e.mu)
	e.oracleMarks = newOracleScratch(cfg.Objects)
	if !cfg.DisableCollection {
		if cfg.Pacing != nil {
			e.pacer = newLivePacer(*cfg.Pacing, e.arena)
		}
	} else {
		// Pre-fault the ref-slot pages now, at construction time. The
		// distillation baseline allocates linearly through an arena many
		// times the real run's, and first-touch page faults inside the
		// measured window would charge the baseline CPU the collector
		// doesn't owe (and add run-to-run noise that can push the distilled
		// overhead negative). One store per 4KiB page is enough.
		for i := 0; i < len(e.arena.slots); i += 1024 {
			e.arena.slots[i].Store(0)
		}
	}
	e.localCap = resolveLocalCache(cfg)
	e.cardBufCap = cfg.CardBuffer
	if e.cardBufCap == 0 {
		e.cardBufCap = 64
	}
	if e.cardBufCap < 0 {
		e.cardBufCap = 0
	}
	if pl := cfg.Faults; pl != nil {
		e.pool.InjectFaults(&workpack.PoolFaults{
			CAS:         pl.Point(faultinject.PoolCAS),
			Exhaust:     pl.Point(faultinject.PoolExhaust),
			GetStall:    pl.Point(faultinject.PoolGetStall),
			PutStall:    pl.Point(faultinject.PoolPutStall),
			DeferStall:  pl.Point(faultinject.PoolDeferStall),
			LocalSpill:  pl.Point(faultinject.PoolLocalSpill),
			StealMiss:   pl.Point(faultinject.PoolStealMiss),
			RefillStall: pl.Point(faultinject.PoolRefillStall),
		})
		e.arena.Cards.InjectCleanFault(pl.Point(faultinject.CardCleanStall))
		e.fi = engineFaults{
			tracerStall:    pl.Point(faultinject.LiveTracerStall),
			fenceDelay:     pl.Point(faultinject.LiveFenceDelay),
			safepointStall: pl.Point(faultinject.LiveSafepointStall),
			bgStarve:       pl.Point(faultinject.LiveBgStarve),
			allocFail:      pl.Point(faultinject.LiveAllocFail),
			wedge:          pl.Point(faultinject.LiveWedge),
			hoard:          pl.Point(faultinject.PoolHoard),
			overload:       pl.Point(faultinject.LiveOverload),
			emergencyStall: pl.Point(faultinject.LiveEmergencyStall),
		}
	}
	e.setupAccounting()
	for i := 0; i < cfg.Mutators+cfg.ExtMutators; i++ {
		e.muts = append(e.muts, newMutator(e, i))
	}
	e.extWG.Add(cfg.ExtMutators)
	return e
}

// resolveLocalCache turns Config.LocalCache into the per-worker cache
// capacity: negative disables the local tier, zero picks the default, and
// the result is clamped so the workers' empty caches together cannot park
// more than half the pool (a floor of one packet keeps tiny chaos configs
// exercising the tier — worst case they hoard like an exhausted pool, a
// degradation the overflow paths already survive).
func resolveLocalCache(cfg Config) int {
	if cfg.LocalCache < 0 {
		return 0
	}
	c := cfg.LocalCache
	if c == 0 {
		c = workpack.DefaultLocalCache
	}
	workers := cfg.Tracers + cfg.BgTracers
	if cfg.pacingEnabled() {
		workers += cfg.Mutators + cfg.ExtMutators
	}
	if workers > 0 {
		if lim := cfg.Packets / (2 * workers); c > lim {
			c = lim
		}
	}
	if c < 1 {
		c = 1
	}
	return c
}

// Arena exposes the engine's heap (tests inspect it after Run).
func (e *Engine) Arena() *Arena { return e.arena }

// Pool exposes the engine's work packet pool.
func (e *Engine) Pool() *workpack.Pool { return e.pool }

func (e *Engine) now() int64 { return time.Since(e.start).Nanoseconds() }

// Run executes the workload for cfg.Duration — collection cycles separated
// by mutator-only idle periods — then shuts every goroutine down and
// returns the report. Run blocks; it is not reentrant.
func (e *Engine) Run() Report {
	e.start = time.Now()
	e.running.Store(true)
	e.setupTelemetry()

	e.mu.Lock()
	e.activeMuts = len(e.muts)
	e.mu.Unlock()
	// External mutators (indices past cfg.Mutators) are counted in activeMuts
	// but driven by caller goroutines, which must already be polling.
	for _, m := range e.muts[:e.cfg.Mutators] {
		e.wg.Add(1)
		go m.run()
	}
	for i := 0; i < e.cfg.Tracers; i++ {
		e.wg.Add(1)
		go e.traceLoop(i, false)
	}
	for i := 0; i < e.cfg.BgTracers; i++ {
		e.wg.Add(1)
		go e.traceLoop(e.cfg.Tracers+i, true)
	}

	deadline := e.start.Add(e.cfg.Duration)
	if e.cfg.DisableCollection {
		// Distillation baseline: the collector never runs. Mutators churn
		// uninterrupted until the deadline; allocation pressure has nothing
		// to kick, so idleWait's early return just re-enters the wait.
		for !time.Now().After(deadline) {
			e.idleWait()
		}
		e.shutdown.Store(true)
		e.wg.Wait()
		e.extWG.Wait()
		e.finishReport()
		return e.report
	}
	for {
		if !e.runCycle() {
			// Wedged: the watchdog already resumed the world, recorded the
			// diagnosis and shut the workers down.
			e.finishReport()
			return e.report
		}
		// Rung 2 of the degradation ladder: if backpressure waits timed out
		// or pressured cycles keep freeing next to nothing, fall back to a
		// synchronous full STW collection before resuming normal cadence.
		if e.escalationCheck(e.lastFreed) && !e.runEmergencyCycle() {
			e.finishReport()
			return e.report
		}
		if time.Now().After(deadline) {
			break
		}
		if e.pacer != nil {
			e.kickoffWait(deadline)
		} else {
			e.idleWait()
		}
	}

	e.shutdown.Store(true)
	e.wg.Wait()
	// External mutators retire themselves once they observe ShuttingDown;
	// their caches and card buffers are only accounted for after Retire.
	e.extWG.Wait()
	e.finishReport()
	return e.report
}

// idleWait is the mutator-only churn window between cycles. Allocation
// failure anywhere cuts it short: a mutator that found the free list empty
// has signalled memPressure, and the right response is to start collecting,
// not to keep churning on a full heap.
func (e *Engine) idleWait() {
	deadline := time.Now().Add(e.cfg.IdlePeriod)
	for {
		if e.memPressure.Swap(false) {
			e.stats.pressureKicks.Add(1)
			return
		}
		if !time.Now().Before(deadline) {
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// kickoffWait replaces the fixed idle timer when pacing is enabled: the
// mutators churn until the kickoff formula fires (free < (L+M)/K0).
// Allocation pressure still preempts the formula — a mutator that found the
// free list empty must not wait for a threshold crossing that effectively
// already happened — and the run deadline bounds the wait on workloads that
// never fill the heap.
func (e *Engine) kickoffWait(deadline time.Time) {
	for {
		if e.memPressure.Swap(false) {
			e.stats.pressureKicks.Add(1)
			return
		}
		if e.pacer.kickoff(e.now()) {
			e.stats.kickoffs.Add(1)
			return
		}
		if !time.Now().Before(deadline) {
			return
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// runCycle is one full collection: STW init (clear marks, scan the mutator
// roots), the concurrent mark phase (root blocks, then tracing with
// card-cleaning passes and deferred drains), the STW final phase (closure,
// oracle, garbage listing), then concurrent sweep of the garbage back onto
// the free list. It reports false when the termination watchdog declared the
// cycle wedged and aborted the run.
func (e *Engine) runCycle() bool {
	drv := workpack.NewTracer(e.pool)
	cycleStart := e.now()
	// Overflows are counted from here, so a first card pass that inherits
	// the init root scan's overflow dirt is a backlog pass too.
	overflowsSeen := e.stats.overflows.Load()

	var cleanedAtStart int64
	if e.pacer != nil {
		e.samplePacingKickoff(cycleStart)
		e.pacer.startCycle()
		cleanedAtStart = e.arena.Cards.AtomicStats.CardsCleaned.Load()
	}

	// --- STW init: snapshot the roots under a stopped world. ---
	e.stopTheWorld()
	initStart := e.now()
	e.arena.Mark.ClearAll()
	e.arena.Cards.RegisterAndClearAtomic(e.cardBuf[:0]) // drop stale dirt
	e.cycleScanBase.Store(e.stats.scans.Load())
	e.firstDoneNs.Store(0)
	activeStart := e.now()
	e.cycleSeq.Add(1)
	e.markingActive.Store(true)
	e.scanMutatorRoots(drv)
	drv.Release()
	initEnd := e.now()
	e.resumeWorld()
	e.noteSTW(initStart, initEnd)
	e.span("stw.init", initStart, initEnd)

	// --- Concurrent mark: the driver scans the root blocks, then tracers
	// drain the pool while mutators run. Root blocks need no snapshot: the
	// final pause rescans every root, and marking is incremental-update. ---
	e.scanRootBlocks(drv)
	drv.Release()
	passes := 0
	stall := time.Duration(0)
	watch := e.newWedgeWatch()
	for {
		if !e.pool.DeferredEmpty() {
			e.pool.DrainDeferred()
			e.stats.deferredDrains.Add(1)
			// Recirculated work re-opens the cycle: the next dry spell is a
			// fresh termination-detection interval.
			e.firstDoneNs.Store(0)
		}
		if e.pool.TracingDone() && e.pool.DeferredEmpty() {
			// Cards dirtied by packet overflow (Section 4.3) are the
			// collector's own backlog, not mutation: a pass that starts after
			// overflows grew cleans them concurrently and does not count
			// toward CardPasses. This terminates — an overflow follows a
			// fresh mark, and marks never clear within a cycle.
			overflows := e.stats.overflows.Load()
			backlog := overflows != overflowsSeen
			if passes >= e.cfg.CardPasses && !backlog {
				break
			}
			overflowsSeen = overflows
			// "As late as possible": clean cards only once tracing has
			// drained, so each pass catches the most mutation.
			passStart := e.now()
			cleaned, ok := e.cardPassConcurrent(drv)
			if !ok {
				e.abortWedged(drv, "card-pass fence handshake")
				return false
			}
			if cleaned {
				e.span("card.pass", passStart, e.now())
				e.firstDoneNs.Store(0)
			}
			if !backlog {
				passes++
			}
			continue
		}
		time.Sleep(50 * time.Microsecond)
		if watch.stalled() {
			e.abortWedged(drv, "concurrent mark")
			return false
		}
		// If tracing stalls on deferred objects whose allocation batches
		// have not filled, a handshake forces every mutator to publish.
		if stall += 50 * time.Microsecond; stall >= time.Millisecond {
			if !e.forceFences() {
				e.abortWedged(drv, "mark-phase fence handshake")
				return false
			}
			stall = 0
		}
	}
	markEnd := e.now()
	e.stats.markNs.Add(markEnd - initEnd)
	e.span("mark.concurrent", initEnd, markEnd)
	e.noteTermLatency(markEnd)
	e.flushWorkerCycle(cycleStart, markEnd)

	// --- STW final: close the mark, run the oracle, collect garbage. ---
	e.stopTheWorld()
	finalStart := e.now()
	marksAtFinal := e.stats.marks.Load()
	if !e.closeMark(drv) {
		e.abortWedged(drv, "final marking phase")
		return false
	}
	e.report.FinalMarks += e.stats.marks.Load() - marksAtFinal
	oracleStart := e.now()
	res := e.runOracle()
	e.span("oracle", oracleStart, e.now())
	toFree := e.collectGarbage()
	e.checkFreeConservation(len(toFree))
	e.lastFreed = len(toFree)
	e.markingActive.Store(false)
	e.stats.activeNs.Add(e.now() - activeStart)
	finalEnd := e.now()
	e.resumeWorld()
	e.noteSTW(finalStart, finalEnd)
	e.span("stw.final", finalStart, finalEnd)

	// --- Concurrent sweep: garbage is unreachable, so zeroing and
	// free-listing it races with nothing. The batch push costs one CAS per
	// free-list shard instead of one per object. ---
	for _, obj := range toFree {
		e.arena.ZeroSlots(obj)
	}
	e.arena.PushFreeAll(toFree)
	e.stats.objectsFreed.Add(int64(len(toFree)))
	sweepEnd := e.now()
	e.stats.sweepNs.Add(sweepEnd - finalEnd)
	e.span("sweep", finalEnd, sweepEnd)
	e.span("cycle", cycleStart, sweepEnd)
	e.noteCycle(res, len(toFree), sweepEnd)
	if e.pacer != nil {
		// Feed the predictors the cycle's actuals, mirroring the simulator
		// backend: L learns the traced volume, M the dirty-card volume
		// (cleaned cards times the card's object span).
		cleaned := e.arena.Cards.AtomicStats.CardsCleaned.Load() - cleanedAtStart
		e.pacer.endCycle(cleaned * cardtable.CardWords)
	}
	return true
}

// closeMark reaches the marking fixpoint with the world stopped: caches are
// already published (mutators publish as they park), so after one scan of
// every root — the slots cannot change while the world is stopped — the
// driver drains deferred work, the remaining dirty cards and the pool itself
// in rounds until nothing moves. Registration needs no mutator fence here.
// The driver traces alongside the tracers instead of sleeping, and yields
// only while another tracer holds packets. It reports false when the
// fixpoint made no progress for the wedge deadline (e.g. a tracer holding a
// packet hostage keeps TracingDone false forever); the caller aborts via the
// watchdog instead of hanging CI.
func (e *Engine) closeMark(drv *workpack.Tracer) bool {
	watch := e.newWedgeWatch()
	e.scanMutatorRoots(drv)
	e.scanRootBlocks(drv)
	// The driver stands in for dedicated tracer 0 (defaults leave at least
	// one): its scans go on that tracer's ledger and the dedicated word
	// counter, so the attribution identities still hold.
	led := e.tracerLedger(0)
	var scanned int64
	defer func() {
		e.stats.traceDedicatedWords.Add(scanned * int64(e.arena.refsPer))
		if e.pacer != nil && scanned > 0 {
			e.pacer.noteTraced(scanned)
		}
	}()
	for {
		work := false
		if e.pool.DrainDeferred() > 0 {
			work = true
		}
		e.cardBuf = e.arena.Cards.RegisterAndClearAtomic(e.cardBuf[:0])
		if len(e.cardBuf) > 0 {
			work = true
			for _, c := range e.cardBuf {
				e.rescanCard(c, drv)
			}
			e.arena.Cards.NoteCleanedAtomic(len(e.cardBuf))
		}
		for {
			a, ok := drv.Pop()
			if !ok {
				break
			}
			work = true
			if e.scanObject(a, drv) {
				led.NoteTraced(int64(e.arena.refsPer))
				scanned++
			}
		}
		drv.Release()
		if !e.pool.TracingDone() || !e.pool.DeferredEmpty() {
			// Another tracer still holds packets (or deferred work awaits the
			// next round's drain) — but not forever.
			if watch.stalled() {
				return false
			}
			if !e.pool.TracingDone() {
				runtime.Gosched()
			}
			continue
		}
		if !work && e.arena.Cards.CountDirtyAtomic() == 0 {
			return true
		}
	}
}

// cardPassConcurrent is the three-step cleaning protocol of Section 5.3
// against running mutators: register-and-clear the dirty indicators, force
// every mutator through one fence, then rescan marked objects on the
// registered cards. cleaned is false when there was nothing to clean; ok is
// false when the fence handshake timed out (the run is wedged — a registered
// card must not be rescanned without its fence).
func (e *Engine) cardPassConcurrent(drv *workpack.Tracer) (cleaned, ok bool) {
	e.cardBuf = e.arena.Cards.RegisterAndClearAtomic(e.cardBuf[:0]) // step 1
	if len(e.cardBuf) == 0 {
		return false, true
	}
	if !e.forceFences() { // step 2
		return false, false
	}
	for _, c := range e.cardBuf {
		e.rescanCard(c, drv) // step 3
	}
	e.arena.Cards.NoteCleanedAtomic(len(e.cardBuf))
	drv.Release()
	e.stats.cardPasses.Add(1)
	return true, true
}

// A card spans exactly one 64-bit mark-vector word (compile-time check).
const _ = uint(cardtable.CardWords-64) + uint(64-cardtable.CardWords)

// rescanCard retraces the marked objects on one registered card. A card is
// exactly one mark-vector word, so it walks that word's set bits. Unmarked
// objects — including any marked after the word was loaded — are skipped:
// they are either garbage or grey, and will be scanned with fresh slot
// values when tracing reaches them. A marked object whose allocation bits
// are not yet visible cannot be scanned; its card is re-dirtied so a later
// pass (at the latest, the STW final phase, after every cache has
// published) retries.
func (e *Engine) rescanCard(card int, tr *workpack.Tracer) {
	marked := e.arena.Mark.LoadWord(card) & e.arena.objectMask(card)
	for ; marked != 0; marked &= marked - 1 {
		a := heapsim.Addr(card*64 + bits.TrailingZeros64(marked))
		if !e.arena.Alloc.TestAcquire(int(a)) {
			e.arena.Cards.DirtyCardAtomic(card)
			e.stats.rescanRedirty.Add(1)
			continue
		}
		for j := 0; j < e.arena.refsPer; j++ {
			if c := e.arena.LoadRef(a, j); c != heapsim.Nil {
				e.markAndPush(c, tr)
			}
		}
		e.stats.rescans.Add(1)
	}
}

// scanMutatorRoots marks and pushes every current root of every mutator.
// During STW init this is the snapshot the cycle traces from; in the final
// phase it is part of the root rescan that closes the cycle.
func (e *Engine) scanMutatorRoots(tr *workpack.Tracer) {
	for _, m := range e.muts {
		for i := range m.roots {
			if c := heapsim.Addr(m.roots[i].Load()); c != heapsim.Nil {
				e.markAndPush(c, tr)
			}
		}
	}
}

// scanRootBlocks marks and pushes every slot of the external root blocks (a
// server store's bucket heads). A cycle scans them concurrently, right after
// STW init; the final pause rescans them with the mutator roots.
func (e *Engine) scanRootBlocks(tr *workpack.Tracer) {
	for _, rs := range e.extraRoots {
		for i := range rs.slots {
			if c := heapsim.Addr(rs.slots[i].Load()); c != heapsim.Nil {
				e.markAndPush(c, tr)
			}
		}
	}
}

// scanObject traces one grey object popped from the pool. If the object's
// allocation bits are not yet visible (Section 5.2) it is deferred instead
// of scanned; if even the deferred packet is unavailable, its card is
// dirtied so the cleaning protocol retries it. It reports whether the
// object was actually scanned, so the caller — a dedicated tracer, a
// background tracer or a mutator paying its allocation tax — can attribute
// the work to exactly one party; the per-party word counters summed must
// equal scans times the per-object slot count.
func (e *Engine) scanObject(a heapsim.Addr, tr *workpack.Tracer) bool {
	if !e.arena.Alloc.TestAcquire(int(a)) {
		e.stats.deferred.Add(1)
		if !tr.PushDeferred(a) {
			e.arena.Cards.DirtyCardAtomic(e.arena.Cards.CardOf(a))
			e.stats.deferOverflows.Add(1)
		}
		return false
	}
	for j := 0; j < e.arena.refsPer; j++ {
		if c := e.arena.LoadRef(a, j); c != heapsim.Nil {
			e.markAndPush(c, tr)
		}
	}
	e.stats.scans.Add(1)
	return true
}

// payAllocTax implements the incremental half of Section 3 for the live
// backend: the refilling mutator asks the pacer for a tracing budget
// proportional to its allocation (K objects traced per object allocated)
// and repays it by draining work packets inline before the refill returns.
// Only the budget decision takes the pacer gate; the scanning itself runs
// lock-free against the shared pool like any tracer's. A budget the pool
// cannot cover (tracing already drained) is simply underpaid — EndIncrement
// reports what was done and the progress formula compensates.
func (e *Engine) payAllocTax(m *mutator, allocObjs int64) {
	b := e.pacer.incrementBudget(e.now(), allocObjs)
	var done int64
	if b.Words > 0 {
		var tr *workpack.Tracer
		if m.local != nil {
			tr = workpack.NewLocalTracer(m.local)
		} else {
			tr = workpack.NewTracer(e.pool)
		}
		led := e.mutatorLedger(m.id)
		tr.SetLedger(led)
		for done < b.Words {
			a, ok := tr.Pop()
			if !ok {
				break
			}
			if e.scanObject(a, tr) {
				led.NoteTraced(int64(e.arena.refsPer))
				e.stats.traceMutatorWords.Add(int64(e.arena.refsPer))
				done++
			}
		}
		tr.Release()
	}
	e.pacer.endIncrement(done)
	e.stats.pacedIncrements.Add(1)
}

// markAndPush claims an object with one atomic fetch-or and queues it for
// scanning. An atomic load first skips already-marked objects without
// writing their mark word. On packet overflow (both packets full, pool
// exhausted) it degrades per Section 4.3: the mark stands and the object's
// card is dirtied so a cleaning pass rescans it.
func (e *Engine) markAndPush(c heapsim.Addr, tr *workpack.Tracer) {
	if e.arena.Mark.TestAcquire(int(c)) || !e.arena.Mark.TestAndSetAtomic(int(c)) {
		return
	}
	e.stats.marks.Add(1)
	if !tr.Push(c) {
		e.arena.Cards.DirtyCardAtomic(e.arena.Cards.CardOf(c))
		e.stats.overflows.Add(1)
	}
}

// stopTheWorld requests a safepoint and blocks until every live mutator has
// parked (publishing its allocation batch on the way in). Tracers are never
// parked — they are the collector.
func (e *Engine) stopTheWorld() {
	e.mu.Lock()
	e.stopWorld = true
	e.stopFlag.Store(true)
	for e.parked < e.activeMuts {
		e.cond.Wait()
	}
	e.mu.Unlock()
	e.worldStopped = true
}

// resumeWorld releases the parked mutators.
func (e *Engine) resumeWorld() {
	e.worldStopped = false
	e.mu.Lock()
	e.stopWorld = false
	e.stopFlag.Store(false)
	e.cond.Broadcast()
	e.mu.Unlock()
}

// forceFences drives every mutator through one synchronization point: the
// driver bumps the epoch and spins until each live mutator has stored an
// acknowledgement (a release store the handshake counts as the one forced
// fence per mutator of Section 5.3). It reports false when some mutator
// failed to acknowledge within the wedge deadline — a registered card set
// must not be rescanned on the strength of a fence that never happened.
func (e *Engine) forceFences() bool {
	epoch := e.fenceEpoch.Add(1)
	deadline := time.Now().Add(e.cfg.WedgeTimeout)
	for _, m := range e.muts {
		for spins := 0; m.ackEpoch.Load() < epoch && !m.exited.Load(); spins++ {
			runtime.Gosched()
			// Check the clock only every so often: the handshake usually
			// completes in microseconds and time.Now is not free.
			if spins&1023 == 1023 && time.Now().After(deadline) {
				return false
			}
		}
	}
	return true
}

// traceLoop is one tracing goroutine. Background tracers throttle between
// packets, modelling the paper's low-priority threads that cede the
// processor to mutators.
func (e *Engine) traceLoop(id int, bg bool) {
	defer e.wg.Done()
	var lp *workpack.LocalPool
	var tr *workpack.Tracer
	if e.localCap > 0 {
		lp = e.pool.NewLocal(e.localCap)
		tr = workpack.NewLocalTracer(lp)
	} else {
		tr = workpack.NewTracer(e.pool)
	}
	led := e.tracerLedger(id)
	tr.SetLedger(led)
	if e.fi.hoard != nil && id == 0 && !bg {
		// The hoard fault elects the first dedicated tracer: one asymmetric
		// worker is what skews the balance; all of them hoarding is just a
		// smaller pool.
		tr.InjectHoard(e.fi.hoard)
	}
	for !e.shutdown.Load() {
		idle := 20 * time.Microsecond
		if bg {
			idle = e.cfg.BgThrottle
		}
		if !e.markingActive.Load() {
			time.Sleep(100 * time.Microsecond)
			continue
		}
		if bg && e.fi.bgStarve.Fire() {
			// Starved background tracer: the scheduler never gives it a
			// slice while marking is active. Dedicated tracers must finish
			// the cycle without it.
			time.Sleep(max(e.fi.bgStarve.Delay(), e.cfg.BgThrottle))
			continue
		}
		if e.fi.wedge.Fire() {
			// A wedged tracer: it holds whatever packets it has checked out
			// and makes no progress until shutdown. This is the watchdog's
			// reason to exist — TracingDone stays false forever.
			for !e.shutdown.Load() {
				time.Sleep(100 * time.Microsecond)
			}
			break
		}
		a, ok := tr.Pop()
		if !ok {
			// Get-before-return already happened inside Pop; releasing
			// here is what lets TracingDone observe quiescence.
			tr.Release()
			if led != nil {
				// A tracer that already contributed scans this cycle and now
				// finds the pool dry stamps the termination clock: the gap to
				// the driver's TracingDone observation is the cycle's
				// detection latency.
				if e.markingActive.Load() && e.stats.scans.Load() > e.cycleScanBase.Load() {
					e.firstDoneNs.CompareAndSwap(0, e.now())
				}
				seq := e.cycleSeq.Load()
				idleStart := time.Now()
				time.Sleep(idle)
				// Only charge the nap if it ended inside the cycle it began:
				// the last nap of a phase straddles the boundary, and on an
				// oversubscribed box the late wake-up would bill the whole
				// STW final and sweep (or the inter-cycle gap) as tracer
				// idle, pushing the idle fraction past 100%.
				if e.markingActive.Load() && e.cycleSeq.Load() == seq {
					led.NoteIdle(time.Since(idleStart).Nanoseconds())
				}
			} else {
				time.Sleep(idle)
			}
			continue
		}
		e.fi.tracerStall.Stall()
		if e.scanObject(a, tr) {
			words := int64(e.arena.refsPer)
			led.NoteTraced(words)
			if bg {
				e.stats.traceBgWords.Add(words)
				if e.pacer != nil {
					e.pacer.noteBackground(1)
				}
			} else {
				e.stats.traceDedicatedWords.Add(words)
				if e.pacer != nil {
					e.pacer.noteTraced(1)
				}
			}
		}
		if bg && !e.stopFlag.Load() {
			// No throttle while the world is stopped: there is no mutator
			// to cede the processor to, and the pause waits on every packet
			// this tracer holds.
			time.Sleep(e.cfg.BgThrottle / 4)
		}
	}
	// Every exit path — normal shutdown or a wedge abort — returns the
	// held packets, drains any hoard the fault built up, and spills the
	// whole local cache, so post-run quiescence checks account for every
	// packet in the global pool.
	tr.Release()
	tr.DrainHoard()
	if lp != nil {
		lp.Flush()
	}
}

// checkFreeConservation verifies, with the world stopped at the end of a
// cycle's STW final phase, that every arena object is in exactly one place:
// on a free-list shard, in the garbage batch about to be swept, published
// (alloc bit set), or parked in a mutator's allocation cache. Mutator caches
// are safe to read — their owners parked under mu after their last write —
// and pending batches are empty because every mutator publishes on the way
// into the safepoint. A mismatch means a shard lost or duplicated objects
// and is reported as an oracle violation.
func (e *Engine) checkFreeConservation(pendingFree int) {
	free := e.arena.FreeLen()
	allocated := int64(e.arena.Alloc.Count())
	var cached int64
	for _, m := range e.muts {
		cached += int64(len(m.cache))
	}
	got := free + int64(pendingFree) + allocated + cached
	if got != int64(e.arena.numObjects) {
		e.violation(
			"cycle %d: free-list conservation: free %d + pending %d + allocated %d + cached %d = %d, want %d",
			e.report.Cycles, free, pendingFree, allocated, cached, got, e.arena.numObjects)
	}
}

// newRNG hands each worker an independent deterministic stream.
func (e *Engine) newRNG(id int) *rand.Rand {
	return rand.New(rand.NewSource(e.cfg.Seed*1_000_003 + int64(id)))
}
