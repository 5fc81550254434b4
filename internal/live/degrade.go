package live

import (
	"sync"
	"sync/atomic"
	"time"

	"mcgc/internal/workpack"
)

// The graceful-degradation ladder: what the engine does when concurrency
// loses — when allocation outruns tracing and the free list runs dry.
//
// Rung 1, allocation backpressure: a failed allocation-cache refill becomes
// a bounded blocking wait with per-mutator exponential backoff. The waiting
// mutator keeps honoring safepoints and fence handshakes (so the collector
// it is waiting for can actually run), signals memory pressure so the driver
// kicks a cycle, and — with pacing on — repays a pressure-scaled tracing tax
// each round, so the debtors that exhausted the heap do the catch-up tracing.
//
// Rung 2, emergency collection: when backpressure waits start timing out, or
// pressure-kicked cycles repeatedly fail to free even one allocation batch,
// the driver escalates to a synchronous full STW collection — park every
// mutator, trace to completion inside the pause, sweep — with the oracle
// still armed. This is the paper's fallback the concurrent design exists to
// avoid; the ladder makes it a bounded last resort instead of a wedge.
//
// Rung 3 lives in internal/server: admission control reads Headroom and
// DegradationState and sheds allocating requests before the heap is driven
// into rungs 1 and 2, and evicts oldest entries on true exhaustion.

// DegState is the engine's current rung on the degradation ladder.
type DegState int32

const (
	// DegOK: allocation is being satisfied from the free list.
	DegOK DegState = iota
	// DegBackpressure: at least one mutator is blocked waiting for free
	// memory (rung 1).
	DegBackpressure
	// DegEmergency: the driver is running a synchronous full STW collection
	// (rung 2).
	DegEmergency
	numDegStates = 3
)

func (s DegState) String() string {
	switch s {
	case DegOK:
		return "ok"
	case DegBackpressure:
		return "backpressure"
	case DegEmergency:
		return "emergency"
	}
	return "invalid"
}

// LadderConfig tunes the degradation ladder. The zero value (Enabled false)
// preserves the historical fail-fast behavior: a failed refill returns Nil
// immediately and the caller retries or degrades on its own.
type LadderConfig struct {
	// Enabled turns rungs 1 and 2 on.
	Enabled bool
	// BackpressureWait is the deadline for one blocked allocation: a refill
	// that cannot be satisfied within it fails (and counts as a timeout,
	// which arms the emergency escalation). Default 20ms.
	BackpressureWait time.Duration
	// BackoffBase/BackoffCap bound the per-mutator exponential backoff
	// between refill retries. Defaults 20µs and 1ms.
	BackoffBase time.Duration
	BackoffCap  time.Duration
	// EmergencyMinFree is the per-cycle freed-object floor: a pressured
	// cycle that frees fewer objects than this counts as starved. Default
	// is the allocation batch size — "the cycle couldn't free a batch".
	EmergencyMinFree int
	// EmergencyAfter is how many consecutive starved pressured cycles (or
	// cycles with backpressure timeouts) escalate to an emergency STW
	// collection. Default 2.
	EmergencyAfter int
}

func (lc LadderConfig) withDefaults(allocBatch int) LadderConfig {
	if lc.BackpressureWait == 0 {
		lc.BackpressureWait = 20 * time.Millisecond
	}
	if lc.BackoffBase == 0 {
		lc.BackoffBase = 20 * time.Microsecond
	}
	if lc.BackoffCap == 0 {
		lc.BackoffCap = time.Millisecond
	}
	if lc.EmergencyMinFree == 0 {
		lc.EmergencyMinFree = allocBatch
	}
	if lc.EmergencyAfter == 0 {
		lc.EmergencyAfter = 2
	}
	return lc
}

// degStallCap bounds the buffered backpressure stall samples for arbitrarily
// long runs (the flush histograms them; the cap only loses tail samples).
const degStallCap = 1 << 15

// degTracker owns the ladder's observable state: the current rung, the
// time-in-state accounting, the blocked-waiter count and the buffered
// backpressure stall samples. Transitions happen on backpressure entry/exit
// and around emergency collections — rare enough that one small mutex is
// fine; the read side (DegradationState, polled by server admission on every
// allocating request) is a single atomic load.
type degTracker struct {
	stateAtomic atomic.Int32 // mirror of state for lock-free reads

	mu          sync.Mutex
	state       DegState
	since       int64 // engine-now of the last transition
	inState     [numDegStates]int64
	waiters     int
	emergency   bool
	stalls      []int64         // completed backpressure waits, ns
	transitions []degTransition // state changes, for the telemetry gauge
}

// degTransition is one recorded ladder-state change.
type degTransition struct {
	at    int64
	state DegState
}

// recompute folds elapsed time into the current state's bucket and applies
// the transition implied by (emergency, waiters). Caller holds mu.
func (d *degTracker) recompute(now int64) {
	next := DegOK
	switch {
	case d.emergency:
		next = DegEmergency
	case d.waiters > 0:
		next = DegBackpressure
	}
	if next == d.state {
		return
	}
	if now > d.since {
		d.inState[d.state] += now - d.since
	}
	d.state = next
	d.since = now
	d.stateAtomic.Store(int32(next))
	if len(d.transitions) < degStallCap {
		d.transitions = append(d.transitions, degTransition{at: now, state: next})
	}
}

// enterWait registers one mutator blocking on backpressure.
func (d *degTracker) enterWait(now int64) {
	d.mu.Lock()
	d.waiters++
	d.recompute(now)
	d.mu.Unlock()
}

// exitWait unregisters a blocked mutator and buffers its stall length.
func (d *degTracker) exitWait(now, stallNs int64) {
	d.mu.Lock()
	d.waiters--
	if len(d.stalls) < degStallCap {
		d.stalls = append(d.stalls, stallNs)
	}
	d.recompute(now)
	d.mu.Unlock()
}

// setEmergency flips the emergency rung on or off (driver only).
func (d *degTracker) setEmergency(now int64, on bool) {
	d.mu.Lock()
	d.emergency = on
	d.recompute(now)
	d.mu.Unlock()
}

// snapshot returns the time-in-state totals with the open interval folded in,
// plus the buffered stall samples. Driver only, at the end of the run.
func (d *degTracker) snapshot(now int64) (inState [numDegStates]int64, stalls []int64) {
	d.mu.Lock()
	defer d.mu.Unlock()
	inState = d.inState
	if now > d.since {
		inState[d.state] += now - d.since
	}
	return inState, append([]int64(nil), d.stalls...)
}

// transitionLog returns the recorded state changes. Driver only.
func (d *degTracker) transitionLog() []degTransition {
	d.mu.Lock()
	defer d.mu.Unlock()
	return append([]degTransition(nil), d.transitions...)
}

// activeWaiters returns the number of mutators currently blocked on
// backpressure.
func (d *degTracker) activeWaiters() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.waiters
}

// BackpressureStallBounds returns the gc.backpressure_stall_ns histogram
// bounds: geometric from 1µs to beyond 250ms with ratio 1.25, the same shape
// as the server request-latency bounds so the two distributions line up in
// gcstats output.
func BackpressureStallBounds() []float64 {
	var bounds []float64
	for b := 1000.0; b < 2.5e8; b *= 1.25 {
		bounds = append(bounds, b)
	}
	return bounds
}

// Headroom returns the free fraction of the heap: free-list length over
// arena size, in [0,1]. Safe from any goroutine at any time — it is the
// signal server admission control polls per allocating request.
func (e *Engine) Headroom() float64 {
	return float64(e.arena.FreeLen()) / float64(e.arena.numObjects)
}

// DegradationState returns the engine's current rung on the degradation
// ladder. One atomic load; safe from any goroutine.
func (e *Engine) DegradationState() DegState {
	return DegState(e.deg.stateAtomic.Load())
}

// backpressureRefill is rung 1: the blocked-allocation wait a failed refill
// becomes when the ladder is enabled. The mutator publishes its part-filled
// batch (on a full heap it may never fill), signals pressure so the driver
// kicks a cycle, then loops: service safepoints and fences — the collection
// it is waiting for includes STW phases that need this very goroutine to
// park — pay the pressure-scaled tracing tax, retry the batch pop, and back
// off exponentially. It reports whether m.cache is now non-empty; false
// means the deadline expired with the heap still exhausted, which the driver
// reads as rung 1 having failed (arming rung 2).
func (m *mutator) backpressureRefill() bool {
	e := m.e
	lad := &e.cfg.Ladder
	m.publish()
	e.memPressure.Store(true)
	start := time.Now()
	e.deg.enterWait(e.now())
	e.stats.backpressureWaits.Add(1)
	ok := false
	deadline := start.Add(lad.BackpressureWait)
	nap := lad.BackoffBase
	for {
		m.maybePark()
		m.maybeAck()
		if e.shutdown.Load() {
			break
		}
		if e.pacer != nil && e.markingActive.Load() {
			e.payPressureTax(m)
		}
		m.cache = e.arena.PopFreeBatch(m.home, e.cfg.AllocBatch, m.cache[:0])
		if len(m.cache) > 0 {
			ok = true
			break
		}
		e.memPressure.Store(true)
		if time.Now().After(deadline) {
			e.stats.backpressureTimeouts.Add(1)
			break
		}
		time.Sleep(nap)
		if nap *= 2; nap > lad.BackoffCap {
			nap = lad.BackoffCap
		}
	}
	stall := time.Since(start).Nanoseconds()
	e.stats.backpressureNs.Add(stall)
	e.deg.exitWait(e.now(), stall)
	return ok
}

// payPressureTax is the backpressure variant of payAllocTax: a blocked
// mutator drains work packets against a pressure-scaled budget, charging the
// work to the same mutator-attribution counters, so waiting for the
// collector *is* helping the collector. Not feeding the B window is
// deliberate — nothing was allocated.
func (e *Engine) payPressureTax(m *mutator) {
	b := e.pacer.pressureBudget(int64(e.cfg.AllocBatch))
	if b.Words <= 0 {
		return
	}
	var tr *workpack.Tracer
	if m.local != nil {
		tr = workpack.NewLocalTracer(m.local)
	} else {
		tr = workpack.NewTracer(e.pool)
	}
	led := e.mutatorLedger(m.id)
	tr.SetLedger(led)
	var done int64
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
	e.pacer.endIncrement(done)
}

// amplifyAlloc is the live.overload fault's payload: burn one extra
// allocation batch as instant garbage. The objects ride the normal pending
// batch — published with real allocation bits, never installed anywhere — so
// every invariant (Section 5.2 publication, free-list conservation, the
// oracle) sees ordinary allocation at roughly twice the real workload's rate.
func (m *mutator) amplifyAlloc() {
	extra := m.e.arena.PopFreeBatch(m.home, m.e.cfg.AllocBatch, nil)
	if len(extra) < m.e.cfg.AllocBatch {
		// A short batch means the amplified rate has scraped the bottom of
		// the free list: signal pressure even on partial success, so the
		// driver sees the overload before allocations start failing outright.
		m.e.memPressure.Store(true)
		if len(extra) == 0 {
			return
		}
	}
	m.pending = append(m.pending, extra...)
	if len(m.pending) >= m.e.cfg.AllocBatch {
		m.publish()
	}
}

// escalationCheck is the driver's rung-2 trigger, evaluated after every
// concurrent cycle: escalate when rung 1 visibly failed (a backpressure wait
// timed out since the last check), or when pressured cycles keep completing
// without freeing even one allocation batch. Consecutive-failure counting
// lives in driver-only fields; one productive cycle resets it.
func (e *Engine) escalationCheck(freed int) bool {
	if !e.cfg.Ladder.Enabled {
		return false
	}
	timeouts := e.stats.backpressureTimeouts.Load()
	timedOut := timeouts > e.lastBPTimeouts
	e.lastBPTimeouts = timeouts
	pressured := timedOut || e.memPressure.Load() || e.deg.activeWaiters() > 0
	if pressured && (timedOut || freed < e.cfg.Ladder.EmergencyMinFree) {
		e.starvedCycles++
	} else {
		e.starvedCycles = 0
	}
	if e.starvedCycles >= e.cfg.Ladder.EmergencyAfter {
		e.starvedCycles = 0
		return true
	}
	return false
}

// runEmergencyCycle is rung 2: a synchronous full collection inside one STW
// pause. The world parks via the ordinary safepoint machinery (mutators
// blocked in backpressure park too — their wait loop polls), the mark runs
// to its fixpoint with closeMark (tracers keep running during pauses, so the
// pause is still parallel), and the sweep happens before the world resumes —
// the whole point is that free memory exists the moment mutators wake. The
// STW oracle runs inside the pause like any cycle's: the emergency path is
// held to exactly the same correctness bar. Reports false when even the
// stopped-world fixpoint wedged (watchdog abort).
func (e *Engine) runEmergencyCycle() bool {
	drv := workpack.NewTracer(e.pool)
	e.deg.setEmergency(e.now(), true)
	e.stopTheWorld()
	pauseStart := e.now()
	e.fi.emergencyStall.Stall()

	// Fresh snapshot, exactly like STW init — but nothing resumes until the
	// heap has free memory again.
	e.arena.Mark.ClearAll()
	e.arena.Cards.RegisterAndClearAtomic(e.cardBuf[:0])
	e.cycleScanBase.Store(e.stats.scans.Load())
	e.firstDoneNs.Store(0)
	activeStart := e.now()
	e.cycleSeq.Add(1)
	e.markingActive.Store(true)
	if !e.closeMark(drv) {
		e.deg.setEmergency(e.now(), false)
		e.abortWedged(drv, "emergency collection")
		return false
	}
	res := e.runOracle()
	toFree := e.collectGarbage()
	e.checkFreeConservation(len(toFree))
	e.markingActive.Store(false)
	e.stats.activeNs.Add(e.now() - activeStart)
	for _, obj := range toFree {
		e.arena.ZeroSlots(obj)
	}
	e.arena.PushFreeAll(toFree)
	e.stats.objectsFreed.Add(int64(len(toFree)))
	if len(toFree) > 0 {
		// The pressure that forced the escalation is answered; don't let a
		// stale flag immediately kick the next cycle.
		e.memPressure.Store(false)
	}
	pauseEnd := e.now()
	e.resumeWorld()
	e.deg.setEmergency(e.now(), false)
	e.stats.emergencyCycles.Add(1)
	e.noteSTW(pauseStart, pauseEnd)
	e.span("stw.emergency", pauseStart, pauseEnd)
	e.noteCycle(res, len(toFree), pauseEnd)
	return true
}
