package live

import (
	"math/rand"
	"slices"
	"testing"
	"time"

	"mcgc/internal/bitvec"
	"mcgc/internal/heapsim"
)

// oracleFixture builds an engine that never runs, with a three-object chain
// 1 → 2 → 3 held by mutator 0's first root: allocated and marked, exactly
// what a correct cycle leaves behind. Object 5 is allocated and marked but
// unreachable (floating garbage).
func oracleFixture(t *testing.T) *Engine {
	t.Helper()
	e := NewEngine(Config{Objects: 256, Mutators: 1, Tracers: 1})
	e.muts[0].roots[0].Store(1)
	e.arena.StoreRef(1, 0, 2)
	e.arena.StoreRef(2, 0, 3)
	for _, a := range []int{1, 2, 3, 5} {
		e.arena.Alloc.Set(a)
		e.arena.Mark.Set(a)
	}
	if res := e.runOracle(); res != (OracleResult{Live: 3, Floating: 1}) || len(e.report.Violations) != 0 {
		t.Fatalf("clean fixture: %+v, violations %q", res, e.report.Violations)
	}
	return e
}

// TestOracleCatchesLostObject clears a reachable object's mark bit — the
// lost-object bug the oracle exists for — and requires it to be counted and
// reported in the oracle's own words, followed by the context line.
func TestOracleCatchesLostObject(t *testing.T) {
	e := oracleFixture(t)
	e.arena.Mark.Clear(2)
	res := e.runOracle()
	if res.Lost != 1 || res.Live != 3 || res.Floating != 1 {
		t.Fatalf("oracle result %+v, want Live 3, Lost 1, Floating 1", res)
	}
	want := "cycle 0: live object 2 not marked by concurrent trace (mark=false alloc=true card=0 dirty=false refs=[3 0 0 0])"
	if len(e.report.Violations) != 2 || e.report.Violations[0] != want {
		t.Fatalf("violations %q, want %q and a context line", e.report.Violations, want)
	}
	if v := e.report.Violations[1]; v[:len("cycle 0 context: pool occupancy")] != "cycle 0 context: pool occupancy" {
		t.Fatalf("context line %q", v)
	}
}

// TestOracleCatchesMissingAllocBit clears the allocation bit of a marked
// object, once for a reachable one and once for a floating one: neither is
// lost, but both are reported, each with its own message.
func TestOracleCatchesMissingAllocBit(t *testing.T) {
	for _, tc := range []struct {
		obj  int
		want string
	}{
		{3, "cycle 0: live object 3 has no allocation bit (mark=true alloc=false card=0 dirty=false refs=[0 0 0 0])"},
		{5, "cycle 0: marked object 5 has no allocation bit (mark=true alloc=false card=0 dirty=false refs=[0 0 0 0])"},
	} {
		e := oracleFixture(t)
		e.arena.Alloc.Clear(tc.obj)
		res := e.runOracle()
		if res != (OracleResult{Live: 3, Floating: 1}) {
			t.Errorf("object %d: oracle result %+v, want Live 3, Floating 1, Lost 0", tc.obj, res)
		}
		if len(e.report.Violations) != 2 || e.report.Violations[0] != tc.want {
			t.Errorf("object %d: violations %q, want %q and a context line", tc.obj, e.report.Violations, tc.want)
		}
	}
}

// randomWords fills every backing word of v — bit 0 and the tail bits past
// the vector's length included — with a random pattern of the given density
// (1, 2 or 3 random words ANDed: ~1/2, ~1/4, ~1/8 of the bits set).
func randomWords(rng *rand.Rand, v *bitvec.Vector, and int) {
	for w := 0; w < v.Words(); w++ {
		x := ^uint64(0)
		for i := 0; i < and; i++ {
			x &= rng.Uint64()
		}
		v.TakeWord(w)
		v.OrWord(w, x)
	}
}

// TestWordScansMatchPerBit is a differential test of the word-at-a-time
// oracle comparison and garbage listing against the per-object loops they
// replaced, on random mark, allocation and reachability vectors — with bit 0
// (the nil address) and the tail bits past numObjects set, which neither may
// report.
func TestWordScansMatchPerBit(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		objects := 1 + rng.Intn(700) // mostly not a multiple of 64
		e := NewEngine(Config{Objects: objects, Mutators: 1, Tracers: 1})
		reach := bitvec.New(objects + 1)
		randomWords(rng, reach, 1+rng.Intn(3))
		randomWords(rng, e.arena.Mark, 1+rng.Intn(3))
		// Allocation bits mostly set, so violations stay under the cap and
		// their order is compared in full.
		for w := 0; w < e.arena.Alloc.Words(); w++ {
			e.arena.Alloc.OrWord(w, ^(rng.Uint64() & rng.Uint64() & rng.Uint64() & rng.Uint64() & rng.Uint64()))
		}

		// Per-bit reference: the oracle's comparison as a per-object switch.
		var want OracleResult
		var wantViol []string
		report := func(format string, a int) {
			if len(wantViol) < 20 {
				wantViol = append(wantViol, fmtViolation(e, format, a))
			}
		}
		for a := 1; a <= objects; a++ {
			reachable, marked, alloc := reach.Test(a), e.arena.Mark.Test(a), e.arena.Alloc.Test(a)
			switch {
			case reachable && !marked:
				want.Lost++
				report("cycle %d: live object %d not marked by concurrent trace (%s)", a)
			case reachable && !alloc:
				report("cycle %d: live object %d has no allocation bit (%s)", a)
			case marked && !reachable:
				want.Floating++
				if !alloc {
					report("cycle %d: marked object %d has no allocation bit (%s)", a)
				}
			}
		}
		if len(wantViol) > 0 && len(wantViol) < 20 {
			wantViol = append(wantViol, "cycle 0 context: "+e.oracleContext())
		}
		got := e.compareMarks(reach, 0)
		if got != want {
			t.Fatalf("trial %d (%d objects): word compare %+v, per-bit %+v", trial, objects, got, want)
		}
		if !slices.Equal(e.report.Violations, wantViol) {
			t.Fatalf("trial %d (%d objects): violations\n got %q\nwant %q", trial, objects, e.report.Violations, wantViol)
		}

		// Per-bit reference for the garbage listing, on a copy of the
		// allocation bits.
		refAlloc := bitvec.New(objects + 1)
		refAlloc.CopyFrom(e.arena.Alloc)
		var wantFree []heapsim.Addr
		for a := 1; a <= objects; a++ {
			if refAlloc.Test(a) && !e.arena.Mark.Test(a) {
				refAlloc.Clear(a)
				wantFree = append(wantFree, heapsim.Addr(a))
			}
		}
		gotFree := e.collectGarbage()
		if !slices.Equal(gotFree, wantFree) {
			t.Fatalf("trial %d (%d objects): garbage %v, per-bit %v", trial, objects, gotFree, wantFree)
		}
		for w := 0; w < refAlloc.Words(); w++ {
			if g, r := e.arena.Alloc.LoadWord(w), refAlloc.LoadWord(w); g != r {
				t.Fatalf("trial %d: allocation word %d after listing %#x, per-bit %#x", trial, w, g, r)
			}
		}
		// The buffer is reused: a second listing finds nothing new and
		// returns an empty list.
		if again := e.collectGarbage(); len(again) != 0 {
			t.Fatalf("trial %d: second listing returned %d objects", trial, len(again))
		}
	}
}

func fmtViolation(e *Engine, format string, a int) string {
	saved := e.report.Violations
	e.report.Violations = nil
	e.violation(format, e.report.Cycles, a, e.describeObject(heapsim.Addr(a)))
	v := e.report.Violations[0]
	e.report.Violations = saved
	return v
}

// rootedChains preallocates n objects before Run as chains hung off one
// root block of the given width (like a store's bucket heads): a large live
// set reachable only through root blocks.
func rootedChains(e *Engine, width, n int) {
	rs := e.NewRootSet(width)
	var objs []heapsim.Addr
	for len(objs) < n {
		objs = append(objs, e.arena.PopFreeBatch(0, n-len(objs), nil)...)
	}
	for i, a := range objs {
		e.arena.Alloc.Set(int(a))
		slot := i % width
		e.arena.StoreRef(a, 0, rs.Get(slot))
		rs.Set(slot, a)
	}
}

// TestOverflowBacklogClearedConcurrently guards the overflow-aware card
// passes: with a tiny packet pool and a large rooted live set nearly every
// push overflows, yet the final pause may only make a sliver of the marks —
// the overflow-dirtied cards are cleaned by concurrent backlog passes that do
// not count toward CardPasses. Without overflow, CardPasses stays a hard cap.
func TestOverflowBacklogClearedConcurrently(t *testing.T) {
	cfg := Config{
		Objects:    1 << 15,
		Mutators:   1,
		Tracers:    1,
		Packets:    4,
		Duration:   400 * time.Millisecond,
		Seed:       3,
		CardPasses: 2,
	}
	e := NewEngine(cfg)
	rootedChains(e, 4096, 20000)
	rep := e.Run()
	t.Logf("\n%s\nfinal-pause marks %d", rep, rep.FinalMarks)
	if rep.Wedged || rep.LostObjects != 0 || len(rep.Violations) != 0 {
		t.Fatalf("bad run: wedged=%t lost=%d violations=%q", rep.Wedged, rep.LostObjects, rep.Violations)
	}
	if rep.Cycles < 1 || rep.Overflows == 0 {
		t.Fatalf("%d cycles, %d overflows: the tiny pool never overflowed", rep.Cycles, rep.Overflows)
	}
	if rep.FinalMarks*100 > rep.Marks {
		t.Errorf("final pauses made %d of %d marks (> 1%%): the overflow backlog was left to the pause",
			rep.FinalMarks, rep.Marks)
	}
	if rep.CardPasses <= int64(rep.Cycles)*int64(cfg.CardPasses) {
		t.Errorf("%d card passes in %d cycles: no backlog pass beyond the %d per cycle",
			rep.CardPasses, rep.Cycles, cfg.CardPasses)
	}

	// Nothing overflows: a pool that holds the whole heap, and a small live
	// set. The configured pass count is then the most any cycle runs.
	cfg.Packets = 1024
	cfg.Shape = "pointer"
	rep = NewEngine(cfg).Run()
	if rep.Wedged || rep.LostObjects != 0 || rep.Overflows != 0 {
		t.Fatalf("no-overflow run: wedged=%t lost=%d overflows=%d", rep.Wedged, rep.LostObjects, rep.Overflows)
	}
	if rep.CardPasses == 0 || rep.CardPasses > int64(rep.Cycles)*int64(cfg.CardPasses) {
		t.Errorf("no-overflow run: %d card passes in %d cycles, want 1..%d per cycle",
			rep.CardPasses, rep.Cycles, cfg.CardPasses)
	}
}
