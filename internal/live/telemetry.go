package live

import (
	"mcgc/internal/telemetry"
	"mcgc/internal/vtime"
)

// Telemetry tracks. The live engine timestamps with wall-clock nanoseconds
// since Run started (the vtime axis of the sinks is just "ns"). Only the
// driver goroutine records, so the unsynchronized Registry/Timeline
// contract holds. Spans are recorded at completion time, which puts an
// enclosing span (cycle) after its children in the file — gcstats check
// orders and nests per track rather than assuming file order.
const (
	gcTrack   = telemetry.GlobalTrackBase     // cycle + phase spans
	heapTrack = telemetry.GlobalTrackBase + 1 // heap occupancy counter
)

func (e *Engine) setupTelemetry() {
	e.cfg.TL.SetThreadName(gcTrack, "gc driver")
	e.cfg.TL.SetThreadName(heapTrack, "heap")
	for _, a := range e.accounts {
		e.cfg.TL.SetThreadName(a.track, a.trackName())
	}
}

// span records a completed phase on the GC track.
func (e *Engine) span(name string, start, end int64) {
	e.cfg.TL.Span(gcTrack, name, vtime.Time(start), vtime.Time(end))
}

// sampleCycle records the per-cycle gauges and the heap counter track.
func (e *Engine) sampleCycle(res OracleResult, freed int, at int64) {
	t := vtime.Time(at)
	reg := e.cfg.Reg
	reg.Gauge("live.objects").Sample(t, float64(res.Live))
	reg.Gauge("live.floating").Sample(t, float64(res.Floating))
	reg.Gauge("live.freed").Sample(t, float64(freed))
	reg.Gauge("live.free_list").Sample(t, float64(e.arena.FreeLen()))
	e.cfg.TL.Counter(heapTrack, "heap", t,
		telemetry.Arg{Key: "live", Val: float64(res.Live)},
		telemetry.Arg{Key: "floating", Val: float64(res.Floating)},
		telemetry.Arg{Key: "free", Val: float64(e.arena.FreeLen())})
	e.cfg.TL.Instant(gcTrack, "oracle.verdict", t,
		telemetry.Arg{Key: "lost", Val: float64(res.Lost)},
		telemetry.Arg{Key: "floating", Val: float64(res.Floating)})
}

// samplePacingKickoff records the kickoff decision inputs at cycle start,
// mirroring the simulator backend's instant (units are objects here, not
// bytes). Driver only.
func (e *Engine) samplePacingKickoff(at int64) {
	t := vtime.Time(at)
	free := float64(e.arena.FreeLen())
	threshold := e.pacer.threshold()
	e.cfg.Reg.Gauge("gc.pacing.kickoff_free_objs").Sample(t, free)
	e.cfg.Reg.Gauge("gc.pacing.kickoff_target_objs").Sample(t, threshold)
	e.cfg.TL.Instant(gcTrack, "kickoff", t,
		telemetry.Arg{Key: "free_objs", Val: free},
		telemetry.Arg{Key: "target_objs", Val: threshold})
}

// flushTelemetry copies the end-of-run report counters into the registry,
// mirroring the names the simulator backend emits where the concept is the
// same (pool.*, cards.*) and using live.* for engine-only counters.
func (e *Engine) flushTelemetry() {
	reg := e.cfg.Reg
	if reg == nil {
		return
	}
	r := &e.report
	set := func(name string, v int64) { reg.Counter(name).Set(v) }
	// run.vtime_ns is what gcstats metrics divides pauses by for MMU; the
	// live engine's "virtual" time is wall time since Run started.
	set("run.vtime_ns", e.now())
	set("live.cycles", int64(r.Cycles))
	set("live.mutator_ops", r.MutatorOps)
	set("live.objects_allocated", r.ObjectsAllocated)
	set("live.objects_freed", r.ObjectsFreed)
	set("live.alloc_failed", r.AllocFailed)
	set("live.marks", r.Marks)
	set("live.final_marks", r.FinalMarks)
	set("live.scans", r.Scans)
	set("live.rescans", r.Rescans)
	set("live.deferred", r.Deferred)
	set("live.lost_objects", r.LostObjects)
	set("live.floating_total", r.FloatingTotal)
	set("live.stw_ns_total", r.STWTotal.Nanoseconds())
	set("live.stw_ns_max", r.STWMax.Nanoseconds())
	// The concurrent-mark wall total is what -balance divides idle time by.
	set("live.mark_ns_total", r.MarkTotal.Nanoseconds())
	set("live.tracer_active_ns_total", r.TracerActiveTotal.Nanoseconds())
	set("gc.overflows", r.Overflows)
	set("gc.card_passes", r.CardPasses)
	set("gc.forced_fences", r.ForcedFences)
	set("gc.alloc_fences", r.AllocFences)
	set("cards.registered", r.CardsRegistered)
	set("cards.cleaned", r.CardsCleaned)
	set("cards.barrier_marks", r.BarrierMarks)
	set("pool.cas_retries", r.PoolCASRetries)
	set("pool.return_fences", r.PoolReturnFences)
	set("pool.max_in_use", r.PoolMaxInUse)
	set("pool.local_hits", r.PoolLocalHits)
	set("pool.steals", r.PoolSteals)
	set("pool.spills", r.PoolSpills)
	set("arena.shard_steals", r.ArenaShardSteals)
	set("card.buffer_flushes", r.CardBufferFlushes)
	set("live.freelist_retries", r.FreeListRetries)
	set("live.pressure_kicks", r.PressureKicks)
	set("cards.direct_dirties", r.DirectDirties)
	set("live.rescan_redirties", r.RescanRedirties)
	set("trace.mutator_words", r.TraceMutatorWords)
	set("trace.bg_words", r.TraceBgWords)
	set("trace.dedicated_words", r.TraceDedicatedWords)
	if e.pacer != nil {
		set("gc.kickoffs", r.Kickoffs)
		set("gc.increments", r.PacedIncrements)
		// The buffered K trajectory drains here, under the same names the
		// simulator backend samples live, so gcstats reads both identically.
		// Mutators cannot touch the unsynchronized Registry mid-run; the
		// pacer gate buffered these for the driver.
		gK := reg.Gauge("gc.pacing.k")
		gCorr := reg.Gauge("gc.pacing.corrective")
		gBest := reg.Gauge("gc.pacing.best")
		for _, s := range e.pacer.trajectory() {
			t := vtime.Time(s.at)
			gK.Sample(t, s.k)
			if s.corrective != 0 {
				gCorr.Sample(t, s.corrective)
			}
			gBest.Sample(t, s.best)
		}
	}
	// Degradation ladder: counters, time-in-state, the state gauge (one
	// sample per transition, starting at ok) and the backpressure stall
	// distribution — everything gcstats degradation reads back.
	set("gc.backpressure_ns", r.BackpressureTotal.Nanoseconds())
	set("gc.backpressure_waits", r.BackpressureWaits)
	set("gc.backpressure_timeouts", r.BackpressureTimeouts)
	set("gc.emergency_cycles", r.EmergencyCycles)
	set("gc.deg_ok_ns", r.TimeOK.Nanoseconds())
	set("gc.deg_backpressure_ns", r.TimeBackpressure.Nanoseconds())
	set("gc.deg_emergency_ns", r.TimeEmergency.Nanoseconds())
	if e.cfg.Ladder.Enabled {
		set("gc.ladder_enabled", 1)
	}
	if trs := e.deg.transitionLog(); len(trs) > 0 {
		g := reg.Gauge("gc.degradation_state")
		g.Sample(0, float64(DegOK))
		for _, tr := range trs {
			g.Sample(vtime.Time(tr.at), float64(tr.state))
		}
	}
	if _, stalls := e.deg.snapshot(e.now()); len(stalls) > 0 {
		h := reg.Histogram("gc.backpressure_stall_ns", BackpressureStallBounds()...)
		for _, ns := range stalls {
			h.Observe(float64(ns))
		}
	}
	if r.Wedged {
		set("live.wedged", 1)
	}
	e.flushWorkerTelemetry()
	// Per-site fault-injection counters, so a chaos run's metrics file records
	// which faults actually fired (gcstats metrics prints them; chaos-smoke
	// asserts them nonzero).
	for _, p := range r.Faults {
		set("fault."+p.Name+".hits", p.Hits)
		set("fault."+p.Name+".fires", p.Fires)
		if p.Jitters > 0 {
			set("fault."+p.Name+".jitters", p.Jitters)
		}
	}
}
