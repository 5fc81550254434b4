package live

import (
	"fmt"
	"sort"

	"mcgc/internal/stats"
	"mcgc/internal/telemetry"
	"mcgc/internal/vtime"
	"mcgc/internal/workpack"
)

// Per-tracer work-flow accounting: every worker that traces — dedicated
// tracers, throttled background tracers, and (with pacing) mutators paying
// their allocation tax — carries a workpack.Ledger. Workers write their own
// ledgers with uncontended atomics; the driver snapshots them between
// phases, emits per-cycle tracer.cycle spans on per-worker tracks, and folds
// the end-of-run totals into the Report and the trace.worker.* counters that
// gcstats balance reduces to the Section 6.3 quantities (skew, idle
// fraction, steal-hit rate, termination latency).
//
// Accounting arms only when the run carries a telemetry registry, a
// timeline, or a fault plan; a bare Engine keeps the nil-ledger fast path —
// one pointer test per packet operation, zero allocation, zero timestamps.

// workerTrackBase is the first timeline track of the per-worker span lanes
// (driver and heap lanes sit at GlobalTrackBase and +1).
const workerTrackBase = telemetry.GlobalTrackBase + 16

// workerAccount pairs one worker's ledger with its identity: a stable key
// ("d0" dedicated, "b2" background, "m1" mutator tax) used in metric names,
// and a dedicated timeline track.
type workerAccount struct {
	key   string
	kind  string // "dedicated", "bg" or "tax"
	led   *workpack.Ledger
	prev  workpack.LedgerSnap // last per-cycle flush (driver-only)
	track int64
}

// trackName renders the Chrome-trace thread name for this worker's lane.
func (a *workerAccount) trackName() string {
	switch a.kind {
	case "bg":
		return fmt.Sprintf("tracer %s (bg)", a.key)
	case "tax":
		return fmt.Sprintf("tracer %s (tax)", a.key)
	default:
		return fmt.Sprintf("tracer %s", a.key)
	}
}

// setupAccounting builds the worker accounts. Index layout mirrors the
// goroutine ids: [0,Tracers) dedicated, [Tracers,Tracers+BgTracers)
// background, then one account per mutator when pacing gives mutators
// tracing work.
func (e *Engine) setupAccounting() {
	cfg := e.cfg
	if cfg.Reg == nil && cfg.TL == nil && cfg.Faults == nil {
		return
	}
	muts := cfg.Mutators + cfg.ExtMutators // external mutators pay tax too
	n := cfg.Tracers + cfg.BgTracers
	if cfg.Pacing != nil {
		n += muts
	}
	e.accounts = make([]*workerAccount, n)
	for i := 0; i < cfg.Tracers; i++ {
		e.accounts[i] = &workerAccount{key: fmt.Sprintf("d%d", i), kind: "dedicated"}
	}
	for i := 0; i < cfg.BgTracers; i++ {
		id := cfg.Tracers + i
		e.accounts[id] = &workerAccount{key: fmt.Sprintf("b%d", id), kind: "bg"}
	}
	if cfg.Pacing != nil {
		for i := 0; i < muts; i++ {
			id := cfg.Tracers + cfg.BgTracers + i
			e.accounts[id] = &workerAccount{key: fmt.Sprintf("m%d", i), kind: "tax"}
		}
	}
	for i, a := range e.accounts {
		a.led = &workpack.Ledger{}
		a.track = workerTrackBase + int64(i)
	}
}

// tracerLedger returns the ledger for tracing goroutine id (dedicated or
// background), or nil when accounting is off.
func (e *Engine) tracerLedger(id int) *workpack.Ledger {
	if e.accounts == nil || id >= len(e.accounts) {
		return nil
	}
	return e.accounts[id].led
}

// mutatorLedger returns the allocation-tax ledger for mutator mid, or nil
// when accounting is off or mutators do not trace (no pacing).
func (e *Engine) mutatorLedger(mid int) *workpack.Ledger {
	if e.accounts == nil || e.cfg.Pacing == nil {
		return nil
	}
	return e.accounts[e.cfg.Tracers+e.cfg.BgTracers+mid].led
}

// flushWorkerCycle snapshots every account at the end of one mark phase and
// emits the cycle's deltas: a tracer.cycle span on the worker's own track
// (only for workers that did anything, so idle lanes stay empty) and the
// per-cycle words/idle gauges. Driver-only, like all Registry/Timeline use.
func (e *Engine) flushWorkerCycle(cycleStart, markEnd int64) {
	t := vtime.Time(markEnd)
	for i, a := range e.accounts {
		cur := a.led.Snap()
		d := cur.Sub(a.prev)
		a.prev = cur
		if !d.Active() {
			continue
		}
		e.cfg.Reg.Gauge("trace.worker."+a.key+".cycle_words").Sample(t, float64(d.Words))
		e.cfg.Reg.Gauge("trace.worker."+a.key+".cycle_idle_ns").Sample(t, float64(d.IdleNs))
		e.cfg.TL.Span(a.track, "tracer.cycle", vtime.Time(cycleStart), vtime.Time(markEnd),
			telemetry.Arg{Key: "worker", Val: float64(i)},
			telemetry.Arg{Key: "words", Val: float64(d.Words)},
			telemetry.Arg{Key: "acq", Val: float64(d.Acquired())},
			telemetry.Arg{Key: "steals", Val: float64(d.AcqSteal)},
			telemetry.Arg{Key: "idle_ns", Val: float64(d.IdleNs)})
	}
}

// noteTermLatency records one cycle's termination-detection latency: the gap
// between the first moment a tracer that had already contributed scans found
// no work (firstDoneNs, CAS-claimed by the tracers, reset by the driver
// whenever recirculation hands work back) and the driver observing
// TracingDone at markEnd. Cycles where no tracer went idle early have no
// latency sample — detection was immediate.
func (e *Engine) noteTermLatency(markEnd int64) {
	fd := e.firstDoneNs.Load()
	if fd <= 0 || markEnd <= fd {
		return
	}
	lat := markEnd - fd
	e.report.TermLatencyNs = append(e.report.TermLatencyNs, lat)
	e.cfg.Reg.Gauge("trace.term_latency_ns").Sample(vtime.Time(markEnd), float64(lat))
}

// WorkerAccount is the per-worker slice of the Report: the worker's stable
// key plus its full-run ledger totals.
type WorkerAccount struct {
	Key  string
	Kind string
	workpack.LedgerSnap
}

// finishAccounting folds the final ledger totals into the Report.
func (e *Engine) finishAccounting() {
	for _, a := range e.accounts {
		e.report.Workers = append(e.report.Workers, WorkerAccount{
			Key:        a.key,
			Kind:       a.kind,
			LedgerSnap: a.led.Snap(),
		})
	}
}

// flushWorkerTelemetry emits the end-of-run trace.worker.* counters (the
// series gcstats balance consumes). Counters for a worker that never traced
// are suppressed, except words, so the worker's existence — and its zero —
// still reaches the balance view.
func (e *Engine) flushWorkerTelemetry() {
	reg := e.cfg.Reg
	if reg == nil || len(e.report.Workers) == 0 {
		return
	}
	set := func(name string, v int64) { reg.Counter(name).Set(v) }
	for _, w := range e.report.Workers {
		pre := "trace.worker." + w.Key + "."
		set(pre+"words", w.Words)
		if !w.Active() {
			continue
		}
		set(pre+"objects", w.Objects)
		set(pre+"acq_global", w.AcqGlobal)
		set(pre+"acq_local", w.AcqLocal)
		set(pre+"acq_steal", w.AcqSteal)
		set(pre+"produced", w.Produced)
		set(pre+"steal_attempts", w.StealAttempts)
		set(pre+"steal_hits", w.StealHits)
		set(pre+"idle_ns", w.IdleNs)
		set(pre+"pool_ns", w.PoolNs)
		if w.Hoarded > 0 {
			set(pre+"hoarded", w.Hoarded)
		}
	}
}

// balanceSummary reduces the Report's worker accounts to one line of the
// Section 6.3 quantities over the tracing goroutines (mutator-tax accounts
// are excluded: they trace on a different clock and would dilute the skew of
// the parallel tracers).
func (r Report) balanceSummary() string {
	var words []float64
	var idle, steals, attempts, hoarded int64
	for _, w := range r.Workers {
		if w.Kind == "tax" {
			continue
		}
		words = append(words, float64(w.Words))
		idle += w.IdleNs
		steals += w.StealHits
		attempts += w.StealAttempts
		hoarded += w.Hoarded
	}
	if len(words) == 0 {
		return ""
	}
	var sum, max float64
	for _, v := range words {
		sum += v
		if v > max {
			max = v
		}
	}
	if sum == 0 {
		return ""
	}
	mean := sum / float64(len(words))
	out := fmt.Sprintf("balance: %d tracers  words max/mean %.2f  gini %.3f  steal hits %d/%d  idle total %.1fms",
		len(words), max/mean, stats.Gini(words), steals, attempts, float64(idle)/1e6)
	if hoarded > 0 {
		out += fmt.Sprintf("  hoarded %d", hoarded)
	}
	if n := len(r.TermLatencyNs); n > 0 {
		lat := append([]int64(nil), r.TermLatencyNs...)
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		out += fmt.Sprintf("  term latency samples %d  p50 %.1fµs  max %.1fµs",
			n, float64(lat[n/2])/1e3, float64(lat[n-1])/1e3)
	}
	return out
}
