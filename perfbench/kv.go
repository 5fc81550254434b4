package main

import (
	"fmt"
	"runtime/debug"
	"sort"
	"time"

	"mcgc/internal/heapsim"
	"mcgc/internal/live"
	"mcgc/internal/pacing"
	"mcgc/internal/runmeta"
	"mcgc/internal/server"
	"mcgc/internal/telemetry"
)

// kvSpec shapes one KV workload: the arena, the store it holds, the request
// mix, and the load — a fixed absolute open-loop rate, then a closed loop.
type kvSpec struct {
	objects   int     // arena size in objects
	valueObjs int     // arena objects per stored value
	keys      int     // key space; set-up preloads every key
	buckets   int     // store bucket chains per shard
	theta     float64 // Zipfian key skew
	mix       mix
	churnOps  int     // requests between session churns (0 disables)
	rate      float64 // open-loop offered rate, requests per second
	warmup    int     // warm-up requests, part of set-up
	// warmBudget is the engine time one set-up is given; the warm-up must
	// finish inside it, and the measured phases start when it does.
	warmBudget time.Duration
	// headroom is the pacing kickoff headroom in objects: cycles start
	// early enough that a closed-loop client cannot exhaust the free list
	// before the cycle's sweep returns memory.
	headroom int64
	// idle, when set, replaces pacing: cycles start this long after the
	// previous one ends.
	idle time.Duration
}

var kvSpecs = map[string]kvSpec{
	// Small live set (about a tenth of the arena once deletes balance
	// puts), half the requests allocate or free: many short cycles, paced
	// by the Section 3 formula with enough headroom to run back to back.
	"kv_churn": {
		objects: 1 << 17, valueObjs: 2, keys: 6000, buckets: 256, theta: 0.99,
		mix:      mix{get: 0.50, put: 0.25, del: 0.05},
		churnOps: 2000, rate: 100_000, warmup: 200_000,
		warmBudget: time.Second, headroom: 1 << 17,
	},
	// Store preloaded to about 70% of the arena, 90% GETs: marking, the
	// final pause and sweep scale with the live set; allocation is idle.
	// Cycles are spaced by the idle timer.
	"kv_bigheap": {
		objects: 1 << 19, valueObjs: 1, keys: 367_000, buckets: 4096, theta: 0.99,
		mix:  mix{get: 0.90, put: 0.10},
		rate: 100_000, warmup: 200_000,
		warmBudget: time.Second, idle: 300 * time.Millisecond,
	},
}

// Client root slots: the session-event chain (dropped on churn) and the
// entry pinned by the last GET hit.
const (
	rootSession = 0
	rootPin     = 1
	sessionCap  = 16
)

// Engine goroutines: one client, one dedicated tracer, one throttled
// background tracer — no more runnable goroutines than a 2-core host has,
// since the background tracer sleeps between packets.
const (
	kvClients   = 1
	kvTracers   = 1
	kvBgTracers = 1
	// parkThresholdNs is the Poll duration above which the traced run counts
	// the call as a park (safepoint or fence wait), not a fast-path check.
	parkThresholdNs = 2000
	// closedBatch is how many closed-loop requests run between clock reads.
	closedBatch = 256
	// window is the nominal length of the open-loop windows whose median
	// p99 a run reports.
	window = time.Second
	// tailMargin is how long the engine's run outlasts the measured phases.
	tailMargin = 300 * time.Millisecond
)

// phase counts one load phase's requests.
type phase struct {
	name                      string
	issued, completed, failed int64
	wall                      time.Duration
}

func (p *phase) note(ok bool) {
	p.issued++
	if ok {
		p.completed++
	} else {
		p.failed++
	}
}

// kvClient is the single load-generating client: one external mutator
// issuing the request stream against the store.
type kvClient struct {
	spec  kvSpec
	m     *live.Mut
	st    *server.Store
	reqs  *requests
	churn splitmix
	left  int // requests until the next session churn

	traced bool
	clock  func() int64
	alloc  *hist // traced: Mut.Alloc on the touch path
	// traced: Poll brackets
	parks, parkNs int64
	parked        bool

	gets, hits int64
}

func (c *kvClient) poll() {
	if !c.traced {
		c.m.Poll()
		return
	}
	t := c.clock()
	c.m.Poll()
	if d := c.clock() - t; d > parkThresholdNs {
		c.parks++
		c.parkNs += d
		c.parked = true
	}
}

// do issues one request and reports whether it succeeded.
func (c *kvClient) do(op opKind, key uint64) bool {
	ok := true
	switch op {
	case opGet:
		c.gets++
		if c.st.Get(c.m, key, rootPin) {
			c.hits++
		}
	case opPut:
		ok = c.st.Put(c.m, key)
	case opDelete:
		c.st.Delete(c.m, key)
	case opTouch:
		ok = c.touch()
	}
	if c.spec.churnOps > 0 {
		if c.left--; c.left <= 0 {
			// Connection churn: every root the client holds becomes garbage.
			c.m.SetRoot(rootSession, heapsim.Nil)
			c.m.SetRoot(rootPin, heapsim.Nil)
			c.left = c.nextChurn()
		}
	}
	return ok
}

func (c *kvClient) nextChurn() int {
	return c.spec.churnOps/2 + 1 + int(c.churn.next()%uint64(c.spec.churnOps))
}

// touch prepends a fresh event to the session chain, truncating it at
// sessionCap — the allocation path the traced run brackets.
func (c *kvClient) touch() bool {
	var e heapsim.Addr
	var ok bool
	if c.traced {
		t := c.clock()
		e, ok = c.m.Alloc()
		c.alloc.observe(c.clock() - t)
	} else {
		e, ok = c.m.Alloc()
	}
	if !ok {
		return false
	}
	c.m.Store(e, 0, c.m.Root(rootSession))
	c.m.SetRoot(rootSession, e)
	n, p := 1, e
	for next := c.m.Load(p, 0); next != heapsim.Nil; next = c.m.Load(p, 0) {
		if n++; n > sessionCap {
			c.m.Store(p, 0, heapsim.Nil)
			break
		}
		p = next
	}
	return true
}

// kvRig is one set-up: engine, store, preload, warm-up.
type kvRig struct {
	eng     *live.Engine
	st      *server.Store
	cl      *kvClient
	col     *telemetry.Collector
	done    chan engineRun
	runWall time.Duration // Engine.Run's wall time, set by finish
	warm    phase
	setup   time.Duration
}

type engineRun struct {
	rep  live.Report
	wall time.Duration
}

// newKVRig builds and warms one engine whose Run lasts dur. The returned
// rig's engine is running and its client has just finished the warm-up.
func newKVRig(name string, spec kvSpec, seed uint64, dur time.Duration, traced bool, clock func() int64) (*kvRig, error) {
	t0 := time.Now()
	cfg := live.Config{
		Objects:         spec.objects,
		RefsPerObject:   4,
		RootsPerMutator: 2,
		ExtMutators:     kvClients,
		Tracers:         kvTracers,
		BgTracers:       kvBgTracers,
		Packets:         256,
		Duration:        dur,
		Seed:            int64(seed),
	}
	// The degradation ladder turns an empty free list into a wait for the
	// sweep rather than a failed request: the closed loop allocates faster
	// than any cycle can free.
	cfg = cfg.WithLadder(live.LadderConfig{Enabled: true, BackpressureWait: 2 * time.Second})
	if spec.idle > 0 {
		cfg.IdlePeriod = spec.idle
	} else {
		pc := pacing.Default()
		pc.Headroom = spec.headroom
		cfg = cfg.WithFormulaPacing(pc)
	}
	r := &kvRig{done: make(chan engineRun, 1)}
	if traced {
		r.col = telemetry.NewCollector(true)
		run := r.col.StartRun(runmeta.Run{Exp: "perfbench", Name: name, Seed: int64(seed)})
		cfg = cfg.WithSinks(run.Registry, run.Timeline)
	}
	r.eng = live.NewEngine(cfg)
	r.st = server.NewStore(r.eng, server.StoreConfig{Buckets: spec.buckets, ValueObjs: spec.valueObjs})
	m := r.eng.ExtMutator(0)
	for k := 0; k < spec.keys; k++ {
		if !r.st.Put(m, uint64(k)) {
			return nil, fmt.Errorf("%s: preload failed at key %d of %d", name, k, spec.keys)
		}
	}
	r.cl = &kvClient{
		spec: spec, m: m, st: r.st,
		reqs:   newRequests(seed, spec.keys, spec.theta, spec.mix),
		churn:  splitmix{state: seed ^ 0xC4C4},
		traced: traced, clock: clock, alloc: newHist(),
	}
	if spec.churnOps > 0 {
		r.cl.left = r.cl.nextChurn()
	}
	go func() {
		s := time.Now()
		rep := r.eng.Run()
		r.done <- engineRun{rep, time.Since(s)}
	}()
	r.warm.name = "warmup"
	for i := 0; i < spec.warmup; i++ {
		if r.eng.ShuttingDown() {
			r.finish()
			return nil, fmt.Errorf("%s: warm-up of %d requests overran its %v budget after %d", name, spec.warmup, spec.warmBudget, i)
		}
		r.cl.poll()
		r.warm.note(r.cl.do(r.cl.reqs.next()))
	}
	r.setup = time.Since(t0)
	r.warm.wall = r.setup
	return r, nil
}

// idleUntilShutdown keeps the client answering safepoints until Run ends.
func (r *kvRig) idleUntilShutdown() {
	for !r.eng.ShuttingDown() {
		r.cl.m.Poll()
		time.Sleep(100 * time.Microsecond)
	}
}

// finish retires the client once Run is shutting down and returns the
// engine's report.
func (r *kvRig) finish() live.Report {
	r.idleUntilShutdown()
	r.cl.m.Retire()
	res := <-r.done
	r.runWall = res.wall
	return res.rep
}

// checkKV runs the correctness checks on a finished rig.
func checkKV(r *kvRig, rep live.Report, phases []*phase) []string {
	var bad []string
	if rep.LostObjects != 0 {
		bad = append(bad, fmt.Sprintf("oracle lost %d live objects", rep.LostObjects))
	}
	if len(rep.Violations) > 0 {
		bad = append(bad, fmt.Sprintf("oracle violations: %v", rep.Violations))
	}
	if rep.Wedged {
		bad = append(bad, "engine wedged in "+rep.WedgePhase)
	}
	for _, p := range phases {
		if p.issued != p.completed+p.failed {
			bad = append(bad, fmt.Sprintf("phase %s: issued %d != completed %d + failed %d", p.name, p.issued, p.completed, p.failed))
		}
	}
	// Walk every entry: its head and payload chain (slotPayload = 2, then
	// slotNext = 0, the Store's documented layout) must still be allocated —
	// a live object the collector freed would have lost its allocation bit.
	ar := r.eng.Arena()
	walked, broken := 0, 0
	r.st.Entries(func(_ uint64, head heapsim.Addr) {
		walked++
		n := 0
		for p := ar.LoadRef(head, 2); p != heapsim.Nil; p = ar.LoadRef(p, 0) {
			if !ar.Alloc.Test(int(p)) {
				broken++
			}
			n++
		}
		if !ar.Alloc.Test(int(head)) || n != r.cl.spec.valueObjs-1 {
			broken++
		}
	})
	if walked != r.st.Len() {
		bad = append(bad, fmt.Sprintf("store walk found %d entries, Len says %d", walked, r.st.Len()))
	}
	if broken > 0 {
		bad = append(bad, fmt.Sprintf("store walk: %d entries with freed or truncated value chains", broken))
	}
	return bad
}

// setupReps is how many times a run sets up; setup_s is their median.
const setupReps = 3

func runKV(name string, spec kvSpec, o options) (*outcome, error) {
	// A tighter Go heap goal for the benchmark process: with the default the
	// heap's overshoot over the store's maps and the arena made rss_peak_mb
	// bimodal between runs.
	debug.SetGCPercent(25)
	out := newOutcome()
	t0 := time.Now()
	clock := func() int64 { return int64(time.Since(t0)) }
	openDur := o.seconds * 6 / 10
	closedDur := o.seconds - openDur

	var setups []time.Duration
	for i := 0; i < setupReps-1; i++ {
		r, err := newKVRig(name, spec, o.seed, spec.warmBudget, o.trace, clock)
		if err != nil {
			return nil, err
		}
		setups = append(setups, r.setup)
		rep := r.finish()
		out.fail(checkKV(r, rep, []*phase{&r.warm})...)
		debug.FreeOSMemory()
	}

	r, err := newKVRig(name, spec, o.seed, spec.warmBudget+openDur+closedDur+tailMargin, o.trace, clock)
	if err != nil {
		return nil, err
	}
	setups = append(setups, r.setup)
	cl := r.cl
	cpu0, _ := readCPUTimes()
	var stop func() (map[string]float64, error)
	if o.trace {
		if stop, err = startProfile(); err != nil {
			return nil, err
		}
	}

	// Open loop at a fixed absolute rate, every request timed from its due
	// time; service time per op from release to completion.
	open := phase{name: "open"}
	lat, late := newHist(), newHist()
	wins := make([]*hist, max(1, int(openDur/window)))
	for i := range wins {
		wins[i] = newHist()
	}
	var svc [numOpKinds]*hist
	for i := range svc {
		svc[i] = newHist()
	}
	arr := newArrivals(o.seed, spec.rate)
	base := clock()
	oc := func() int64 { return clock() - base }
	runOpen(oc, arr.next, int64(openDur), cl.poll, cl.poll, func(due, start int64, spun bool) {
		op, key := cl.reqs.next()
		ok := cl.do(op, key)
		fin := oc()
		open.note(ok)
		lat.observe(fin - due)
		wins[due*int64(len(wins))/int64(openDur)].observe(fin - due)
		svc[op].observe(fin - start)
		if spun && !cl.parked {
			late.observe(start - due)
		}
		cl.parked = false
	})
	open.wall = time.Duration(oc())

	// Closed loop for a fixed wall period: throughput is completed requests
	// per wall second, never a count from the open loop. The engine's run
	// outlasts both phases, so no request is cut off by its shutdown.
	closed := phase{name: "closed"}
	c0 := time.Now()
	for time.Since(c0) < closedDur {
		for i := 0; i < closedBatch; i++ {
			cl.poll()
			closed.note(cl.do(cl.reqs.next()))
		}
	}
	closed.wall = time.Since(c0)
	if r.eng.ShuttingDown() {
		out.fail("the engine's run ended inside the measured phases (warm-up overran its budget)")
	}
	rep := r.finish()
	cpu1, _ := readCPUTimes()
	var shares map[string]float64
	if stop != nil {
		if shares, err = stop(); err != nil {
			return nil, err
		}
	}
	phases := []*phase{&r.warm, &open, &closed}
	out.fail(checkKV(r, rep, phases)...)

	sort.Slice(setups, func(i, j int) bool { return setups[i] < setups[j] })
	e := out.e2e
	e["setup_s"] = setups[len(setups)/2].Seconds()
	e["throughput_rps"] = float64(closed.completed) / closed.wall.Seconds()
	// p50 pools the whole open loop. p99 is the median over one-second
	// windows of each window's p99: it tracks the longer pauses, and one
	// unusually long pause or a burst of host noise moves one window, not
	// the run's figure.
	var p99s []float64
	for _, h := range wins {
		p99s = append(p99s, h.quantile(0.99)/1e3)
	}
	e["req_p50_us"] = lat.quantile(0.50) / 1e3
	e["req_p99_us"] = median(p99s)
	e["pause_mean_ms"] = ratio(float64(rep.STWTotal)/1e6, float64(rep.STWCount))
	e["rss_peak_mb"] = maxRSSMB()

	l := out.layer
	l["server.get_p50_us"] = svc[opGet].quantile(0.50) / 1e3
	l["server.get_p99_us"] = svc[opGet].quantile(0.99) / 1e3
	l["server.put_p50_us"] = svc[opPut].quantile(0.50) / 1e3
	l["server.put_p99_us"] = svc[opPut].quantile(0.99) / 1e3
	l["server.delete_p50_us"] = svc[opDelete].quantile(0.50) / 1e3
	l["server.hit_share"] = ratio(float64(cl.hits), float64(cl.gets))
	l["live.alloc_p50_us"] = cl.alloc.quantile(0.50) / 1e3
	l["live.alloc_p99_us"] = cl.alloc.quantile(0.99) / 1e3
	l["live.poll_wait_ms"] = float64(cl.parkNs) / 1e6
	l["live.poll_parks"] = float64(cl.parks)
	for _, p := range phases {
		out.attempted += p.issued
		out.failed += p.failed
	}
	engineLayers(l, rep, r.runWall.Seconds(), out.attempted)
	l["bench.late_p99_us"] = late.quantile(0.99) / 1e3
	l["bench.steal_pct"] = stealPct(cpu0, cpu1)
	if o.trace {
		means, err := spanMeans(r.col, "stw.final", "mark.concurrent", "sweep")
		if err != nil {
			return nil, err
		}
		l["gc.stw_final_ms_mean"] = means["stw.final"]
		l["gc.mark_concurrent_ms_mean"] = means["mark.concurrent"]
		l["gc.sweep_ms_mean"] = means["sweep"]
		addShares(l, shares)
		var pauses []float64
		for _, smp := range r.col.Runs()[0].Registry.Gauge("gc.pause_ns").Samples() {
			pauses = append(pauses, smp.V/1e6)
		}
		sort.Float64s(pauses)
		if n := len(pauses); n > 0 {
			out.ctx["pause_quantiles_ms"] = map[string]float64{
				"p10": pauses[n/10], "p50": pauses[n/2], "p90": pauses[n*9/10],
				"p99": pauses[n*99/100], "max": pauses[n-1], "n": float64(n)}
		}
	}

	out.phases = phases
	out.samples = map[string]int64{"req": lat.n, "late": late.n}
	for i, h := range svc {
		out.samples["svc_"+opNames[i]] = h.n
	}
	out.ctx["offered_rps"] = spec.rate
	out.ctx["clients"] = kvClients
	out.ctx["tracers"] = kvTracers
	out.ctx["bg_tracers"] = kvBgTracers
	out.ctx["arena_objects"] = spec.objects
	out.ctx["live_at_end"] = rep.LiveAtEnd
	out.ctx["store_entries"] = r.st.Len()
	out.ctx["cycles"] = rep.Cycles
	out.ctx["backpressure_waits"] = rep.BackpressureWaits
	out.ctx["backpressure_ms"] = float64(rep.BackpressureTotal) / 1e6
	out.ctx["emergency_cycles"] = rep.EmergencyCycles
	out.ctx["pressure_kicks"] = rep.PressureKicks
	out.ctx["req_p99_windows"] = len(wins)
	out.ctx["req_p99_samples_beyond_per_window"] = wins[0].samplesBeyond(0.99)
	out.ctx["req_p99_pooled_us"] = lat.quantile(0.99) / 1e3
	// Quantiles of the pooled open-loop latencies, for the distribution's
	// shape: where the pause-delayed requests begin.
	qs := map[string]float64{}
	for _, q := range []float64{0.1, 0.25, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99, 0.999} {
		qs[fmt.Sprintf("p%g", q*100)] = lat.quantile(q) / 1e3
	}
	out.ctx["req_quantiles_us"] = qs
	return out, nil
}

// engineLayers fills the per-layer metrics the engine's Report carries.
func engineLayers(l map[string]float64, rep live.Report, runS float64, requests int64) {
	l["gc.cycles_per_s"] = float64(rep.Cycles) / runS
	l["gc.stw_share"] = rep.STWTotal.Seconds() / runS
	l["gc.pause_max_ms"] = float64(rep.STWMax) / 1e6
	l["gc.mark_ns_per_object"] = ratio(float64(rep.MarkTotal), float64(rep.Marks))
	l["gc.sweep_ns_per_freed"] = ratio(float64(rep.SweepTotal), float64(rep.ObjectsFreed))
	l["gc.alloc_objects_per_s"] = float64(rep.ObjectsAllocated) / runS
	// Of the garbage each cycle found, the share it kept as floating.
	l["gc.floating_share"] = ratio(float64(rep.FloatingTotal), float64(rep.FloatingTotal+rep.ObjectsFreed))
	l["gc.rescans_per_scan"] = ratio(float64(rep.Rescans), float64(rep.Scans))
	l["gc.cards_cleaned_per_cycle"] = ratio(float64(rep.CardsCleaned), float64(rep.Cycles))
	if n := len(rep.TermLatencyNs); n > 0 {
		lat := append([]int64(nil), rep.TermLatencyNs...)
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		l["gc.term_latency_p50_us"] = float64(lat[(n-1)/2]) / 1e3
	}
	var idle int64
	var tracers int
	for _, w := range rep.Workers {
		if w.Kind != "tax" {
			idle += w.IdleNs
			tracers++
		}
	}
	if tracers > 0 {
		l["gc.tracer_idle_share"] = ratio(float64(idle), float64(rep.TracerActiveTotal)*float64(tracers))
	}
	words := float64(rep.TraceMutatorWords + rep.TraceBgWords + rep.TraceDedicatedWords)
	l["pacing.tax_words_share"] = ratio(float64(rep.TraceMutatorWords), words)
	l["pacing.bg_words_share"] = ratio(float64(rep.TraceBgWords), words)
	l["pacing.kickoffs"] = float64(rep.Kickoffs)
	l["workpack.cas_retries"] = float64(rep.PoolCASRetries)
	l["workpack.local_hit_share"] = ratio(float64(rep.PoolLocalHits), float64(rep.PoolLocalHits+rep.PoolSteals+rep.PoolRefills))
	l["workpack.steals"] = float64(rep.PoolSteals)
	l["workpack.max_in_use"] = float64(rep.PoolMaxInUse)
	l["cardtable.barrier_marks_per_kreq"] = ratio(float64(rep.BarrierMarks), float64(requests)/1e3)
	l["cardtable.buffer_flushes"] = float64(rep.CardBufferFlushes)
	l["arena.freelist_retries"] = float64(rep.FreeListRetries)
	l["arena.shard_steals"] = float64(rep.ArenaShardSteals)
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
