package workpack

// The per-tracer work-flow ledger: Section 6.3 evaluates load balancing by
// how evenly tracing work spreads across parallel threads and how quickly
// termination is detected, which the pool's aggregate counters cannot show —
// a pool where one tracer does all the work and seven idle has the same
// Gets/Puts totals as a perfectly balanced one. A Ledger is one worker's
// account of where its packets came from (the global sub-pools, its own
// local cache, or a steal from a sibling's window), what it produced and
// traced, and where its time went (idle spin between pops, synchronization
// inside the shared pool). The live engine snapshots ledgers per cycle and
// the gcstats balance view reduces them to skew, idle fraction, steal-hit
// rate and termination latency.
//
// The ledger follows the telemetry layer's nil discipline: a nil *Ledger is
// the disabled state, every method no-ops on it, and an uninstrumented
// Tracer carries exactly one extra pointer test on its hot paths — no
// timestamps, no atomics, no allocation.

import "sync/atomic"

// AcqSrc classifies where a packet acquisition was satisfied.
type AcqSrc uint8

const (
	// SrcNone marks a failed acquisition (no packet anywhere).
	SrcNone AcqSrc = iota
	// SrcGlobal is a pop from the shared sub-pools (including a local
	// cache's batch refill, which is global traffic by another name).
	SrcGlobal
	// SrcLocal is a hit in the worker's own LocalPool cache.
	SrcLocal
	// SrcSteal is a claim from a sibling worker's steal window.
	SrcSteal
)

// Ledger is one worker's work-flow account. All fields are atomics because
// the owner keeps writing while the driver snapshots mid-run (tracers are
// never parked, even during a pause); owner writes are uncontended, so each
// costs an uncontended atomic add only when the ledger is armed.
type Ledger struct {
	AcqGlobal atomic.Int64 // packets acquired from the global sub-pools
	AcqLocal  atomic.Int64 // packets acquired from the worker's own cache
	AcqSteal  atomic.Int64 // packets claimed from sibling steal windows

	Produced atomic.Int64 // non-empty packets returned for others to trace
	Objects  atomic.Int64 // objects this worker scanned
	Words    atomic.Int64 // reference slots this worker traced

	StealAttempts atomic.Int64 // times the steal scan was reached
	StealHits     atomic.Int64 // steal scans that claimed a packet

	IdleNs atomic.Int64 // time spent sleeping because Pop found no work
	PoolNs atomic.Int64 // time spent inside shared-pool get/put operations

	Hoarded   atomic.Int64 // packets withheld by the pool.hoard fault (cumulative)
	HoardHeld atomic.Int64 // packets currently withheld (rises and falls)
}

// noteAcq charges one packet acquisition to its source. Nil-safe.
func (l *Ledger) noteAcq(src AcqSrc) {
	if l == nil {
		return
	}
	switch src {
	case SrcGlobal:
		l.AcqGlobal.Add(1)
	case SrcLocal:
		l.AcqLocal.Add(1)
	case SrcSteal:
		l.AcqSteal.Add(1)
	}
}

// NoteTraced charges one scanned object and its traced slot words. Nil-safe.
func (l *Ledger) NoteTraced(words int64) {
	if l == nil {
		return
	}
	l.Objects.Add(1)
	l.Words.Add(words)
}

// NoteIdle charges idle-spin time spent waiting for tracing work. Nil-safe.
func (l *Ledger) NoteIdle(ns int64) {
	if l == nil {
		return
	}
	l.IdleNs.Add(ns)
}

// LedgerSnap is a plain-integer snapshot of a Ledger, safe to copy, subtract
// and aggregate without atomics.
type LedgerSnap struct {
	AcqGlobal, AcqLocal, AcqSteal int64
	Produced, Objects, Words      int64
	StealAttempts, StealHits      int64
	IdleNs, PoolNs                int64
	Hoarded, HoardHeld            int64
}

// Snap reads every counter once. The fields are loaded individually, so a
// snapshot taken mid-run is per-field consistent, not cross-field atomic —
// the same contract every other racy estimate in the pool offers. Nil-safe:
// a nil ledger snapshots to zeros.
func (l *Ledger) Snap() LedgerSnap {
	if l == nil {
		return LedgerSnap{}
	}
	return LedgerSnap{
		AcqGlobal:     l.AcqGlobal.Load(),
		AcqLocal:      l.AcqLocal.Load(),
		AcqSteal:      l.AcqSteal.Load(),
		Produced:      l.Produced.Load(),
		Objects:       l.Objects.Load(),
		Words:         l.Words.Load(),
		StealAttempts: l.StealAttempts.Load(),
		StealHits:     l.StealHits.Load(),
		IdleNs:        l.IdleNs.Load(),
		PoolNs:        l.PoolNs.Load(),
		Hoarded:       l.Hoarded.Load(),
		HoardHeld:     l.HoardHeld.Load(),
	}
}

// Sub returns the per-field difference s - prev (the delta of one cycle).
func (s LedgerSnap) Sub(prev LedgerSnap) LedgerSnap {
	return LedgerSnap{
		AcqGlobal:     s.AcqGlobal - prev.AcqGlobal,
		AcqLocal:      s.AcqLocal - prev.AcqLocal,
		AcqSteal:      s.AcqSteal - prev.AcqSteal,
		Produced:      s.Produced - prev.Produced,
		Objects:       s.Objects - prev.Objects,
		Words:         s.Words - prev.Words,
		StealAttempts: s.StealAttempts - prev.StealAttempts,
		StealHits:     s.StealHits - prev.StealHits,
		IdleNs:        s.IdleNs - prev.IdleNs,
		PoolNs:        s.PoolNs - prev.PoolNs,
		Hoarded:       s.Hoarded - prev.Hoarded,
		HoardHeld:     s.HoardHeld - prev.HoardHeld,
	}
}

// Acquired returns the total packets acquired from any source.
func (s LedgerSnap) Acquired() int64 { return s.AcqGlobal + s.AcqLocal + s.AcqSteal }

// Active reports whether the snapshot records any activity at all.
func (s LedgerSnap) Active() bool {
	return s.Acquired() != 0 || s.Produced != 0 || s.Objects != 0 || s.Words != 0 ||
		s.StealAttempts != 0 || s.IdleNs != 0 || s.PoolNs != 0 || s.Hoarded != 0
}
