package live

import (
	"strings"
	"testing"
	"time"

	"mcgc/internal/faultinject"
)

// chaosConfig is the shared baseline for the fault-matrix runs: small enough
// to finish quickly per class, shaped so every degradation path is in play.
func chaosConfig(plan *faultinject.Plan) Config {
	dur := 600 * time.Millisecond
	if testing.Short() {
		dur = 200 * time.Millisecond
	}
	return Config{
		Objects:         1 << 13,
		RootsPerMutator: 48,
		Mutators:        3,
		Tracers:         2,
		BgTracers:       1,
		Packets:         12,
		PacketCap:       8,
		AllocBatch:      32,
		CardPasses:      2,
		Duration:        dur,
		Seed:            1,
		FaultOptions: FaultOptions{
			Faults:       plan,
			WedgeTimeout: 10 * time.Second, // fault stalls must not trip it
		},
	}
}

// TestChaosMatrix runs the collector once per fault class and asserts the
// STW oracle holds under each: injected exhaustion, stalls, contention and
// allocation failure may slow the cycle or grow floating garbage, but they
// must never lose a live object, break pool quiescence, or wedge. Each spec
// is also required to actually fire — a chaos run whose fault never triggers
// proves nothing.
func TestChaosMatrix(t *testing.T) {
	cases := []struct {
		name   string
		spec   string
		ladder *LadderConfig // non-nil arms the degradation ladder for the run
	}{
		{"overflow", "pool.exhaust=1/3", nil},
		{"cas-contention", "pool.cas=1/2", nil},
		{"get-put-stalls", "pool.getstall=1/8:50us,pool.putstall=1/8:50us", nil},
		{"deferral", "pool.deferstall=2:100us", nil},
		{"clean-race", "card.cleanstall=1/4:50us", nil},
		{"tracer-stall", "live.tracerstall=4:200us", nil},
		{"fence-stall", "live.fencedelay=3:300us", nil},
		{"safepoint-stall", "live.safepointstall=5:200us", nil},
		{"bg-starve", "live.bgstarve=on:1ms", nil},
		{"alloc-failure", "live.allocfail=1/2", nil},
		{"local-spill", "pool.localspill=1/2", nil},
		{"steal-miss", "pool.stealmiss=1/2", nil},
		{"hoard", "pool.hoard=on", nil},
		{"refill-stall", "pool.refillstall=1/4:50us", nil},
		{"jitter", "jitter=1/8", nil},
		{"everything", "pool.exhaust=1/5,pool.cas=1/4,card.cleanstall=1/8:20us,live.tracerstall=8:100us,live.allocfail=1/6,pool.localspill=1/6,pool.stealmiss=1/6,jitter=1/16", nil},
		// The overload classes run with the degradation ladder armed: the
		// amplifier must drive real backpressure, and the hair-trigger
		// escalation guarantees live.emergencystall gets an emergency pause to
		// fire in.
		{"overload", "live.overload=1/2",
			&LadderConfig{Enabled: true}},
		{"emergency-stall", "live.overload=on,live.emergencystall=on:100us",
			&LadderConfig{Enabled: true, BackpressureWait: 2 * time.Millisecond,
				EmergencyMinFree: 1 << 13, EmergencyAfter: 1}},
	}
	// minHits gates a row on work done rather than on one wall-clock window:
	// the run repeats (fresh engine, same plan, so hits accumulate) until
	// every configured site was reached this many times. A site that a short
	// window reaches only a handful of times would otherwise pass or fail on
	// how much work fit in the window. The repeat is capped, so a site that
	// is never reached still fails below instead of looping.
	minHits := map[string]int64{"refill-stall": 32}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plan := faultinject.MustParse(tc.spec, 7)
			cfg := chaosConfig(plan)
			if tc.ladder != nil {
				cfg.Ladder = *tc.ladder
			}
			for run := 1; ; run++ {
				rep := runChaosOnce(t, tc.spec, cfg)
				if want := minHits[tc.name]; want == 0 || run == 50 || minExplicitHits(rep.Faults) >= want {
					break
				}
			}
			fired := false
			for _, p := range plan.Snapshot() {
				if p.Explicit && p.Fires > 0 {
					fired = true
				}
				if p.Explicit && p.Fires == 0 && p.Name != faultinject.Jitter {
					t.Errorf("fault %s configured but never fired (%d hits)", p.Name, p.Hits)
				}
			}
			if !fired && tc.name != "jitter" {
				t.Error("no configured fault fired — the chaos run exercised nothing")
			}
		})
	}
}

// minExplicitHits returns the fewest hits of any explicitly configured site.
func minExplicitHits(faults []faultinject.PointStat) int64 {
	least := int64(-1)
	for _, p := range faults {
		if p.Explicit && p.Name != faultinject.Jitter && (least < 0 || p.Hits < least) {
			least = p.Hits
		}
	}
	return least
}

// runChaosOnce runs one engine under the chaos plan in cfg and checks what
// must hold after any single run: no wedge, a clean oracle, a quiescent
// pool, and reconciled degradation counters.
func runChaosOnce(t *testing.T, spec string, cfg Config) Report {
	t.Helper()
	e := NewEngine(cfg)
	rep := e.Run()
	t.Logf("\n%s", rep)

	if rep.Wedged {
		t.Fatalf("run wedged in %s:\n%s", rep.WedgePhase, rep.WedgeDiagnosis)
	}
	if rep.LostObjects != 0 {
		t.Errorf("oracle lost %d live objects under %q", rep.LostObjects, spec)
	}
	for _, v := range rep.Violations {
		t.Errorf("oracle: %s", v)
	}
	if rep.Cycles < 1 {
		t.Error("no cycle completed")
	}
	if !e.Pool().TracingDone() || !e.Pool().DeferredEmpty() {
		t.Error("packet pool not quiescent after Run")
	}
	if got := e.Pool().EntriesInUse(); got != 0 {
		t.Errorf("%d packet entries still in flight after Run", got)
	}
	// The degradation counters must reconcile across layers: every
	// DirtyCardAtomic call is one of the engine's three degradations.
	if want := rep.Overflows + rep.DeferOverflows + rep.RescanRedirties; rep.DirectDirties != want {
		t.Errorf("card direct dirties %d != overflows %d + defer overflows %d + rescan redirties %d",
			rep.DirectDirties, rep.Overflows, rep.DeferOverflows, rep.RescanRedirties)
	}
	return rep
}

// TestChaosDeterministicFires runs the same plan twice over the same
// workload and requires identical per-site hit/fire decisions wherever the
// hit count matches: the schedule may vary, the fault schedule may not.
func TestChaosDeterministicFires(t *testing.T) {
	run := func() []faultinject.PointStat {
		plan := faultinject.MustParse("pool.exhaust=1/3,live.allocfail=1/2", 42)
		cfg := chaosConfig(plan)
		cfg.Duration = 150 * time.Millisecond
		rep := NewEngine(cfg).Run()
		if rep.Wedged || rep.LostObjects != 0 {
			t.Fatalf("bad run: wedged=%t lost=%d", rep.Wedged, rep.LostObjects)
		}
		return rep.Faults
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("fault snapshots differ in length: %d vs %d", len(a), len(b))
	}
	// Exact hit counts vary with scheduling; the trigger function may not.
	// Re-evaluate both runs' decisions through a fresh plan and compare.
	for i := range a {
		if a[i].Name != b[i].Name {
			t.Fatalf("snapshot order differs: %s vs %s", a[i].Name, b[i].Name)
		}
		if a[i].Hits == b[i].Hits && a[i].Fires != b[i].Fires {
			t.Errorf("%s: same hits (%d) but fires %d vs %d — trigger not deterministic",
				a[i].Name, a[i].Hits, a[i].Fires, b[i].Fires)
		}
	}
}

// TestWatchdogCatchesWedge injects a total tracing wedge and requires the
// termination watchdog to abort the cycle with diagnostics — quickly, loudly
// and with the pool accounting intact — instead of hanging until the test
// binary's own timeout kills everything.
func TestWatchdogCatchesWedge(t *testing.T) {
	plan := faultinject.MustParse("live.wedge=on", 1)
	cfg := chaosConfig(plan)
	cfg.Duration = 30 * time.Second // the watchdog, not the clock, must end this
	cfg.WedgeTimeout = 300 * time.Millisecond

	e := NewEngine(cfg)
	done := make(chan Report, 1)
	go func() { done <- e.Run() }()

	var rep Report
	select {
	case rep = <-done:
	case <-time.After(15 * time.Second):
		t.Fatal("watchdog did not fire: Run still blocked after 15s")
	}
	t.Logf("\n%s", rep)

	if !rep.Wedged {
		t.Fatal("run completed without tripping the watchdog despite live.wedge=on")
	}
	if rep.WedgeDiagnosis == "" {
		t.Error("wedged report carries no diagnosis")
	}
	for _, want := range []string{"WEDGED", "pool:", "trace:", "fence:", "cards:", "workers:", "live.wedge"} {
		if !strings.Contains(rep.WedgeDiagnosis, want) {
			t.Errorf("diagnosis missing %q:\n%s", want, rep.WedgeDiagnosis)
		}
	}
	// The abort path must still unwind cleanly: every goroutine joined and
	// every packet back in some sub-pool (wedged tracers release on
	// shutdown). Undrained entries legitimately remain — the wedge is the
	// reason they were never traced — so the check is packet conservation,
	// not TracingDone.
	occ := e.Pool().Occupancy()
	inPools := 0
	for _, n := range occ {
		inPools += n
	}
	if inPools != e.Pool().TotalPackets() {
		t.Errorf("only %d of %d packets back in the pool after wedge abort (occupancy %v)",
			inPools, e.Pool().TotalPackets(), occ)
	}
	ps := &e.Pool().Stats
	if gets, puts := ps.Gets.Load(), ps.Puts.Load(); gets != puts {
		t.Errorf("pool gets %d != puts %d after wedge abort — a packet leaked", gets, puts)
	}
}

// TestAllocFailureTriggersCollection wires injected allocation failure to the
// pacing response: mutators signal memory pressure, and the driver must cut
// idle periods short to collect early (PressureKicks > 0) rather than letting
// mutators spin on a heap the collector is in no hurry to sweep.
func TestAllocFailureTriggersCollection(t *testing.T) {
	plan := faultinject.MustParse("live.allocfail=1/2", 3)
	cfg := chaosConfig(plan)
	cfg.IdlePeriod = 50 * time.Millisecond // long enough that kicks are visible
	rep := NewEngine(cfg).Run()
	t.Logf("\n%s", rep)

	if rep.Wedged || rep.LostObjects != 0 {
		t.Fatalf("bad run: wedged=%t lost=%d", rep.Wedged, rep.LostObjects)
	}
	if rep.AllocFailed == 0 {
		t.Fatal("alloc failure injection never failed an allocation")
	}
	if rep.PressureKicks == 0 {
		t.Error("allocation failure never cut an idle period short")
	}
}
