package server

import (
	"errors"
	"testing"
	"time"

	"mcgc/internal/faultinject"
	"mcgc/internal/live"
)

// TestOverloadErrorUnwraps pins the typed-refusal contract: an OverloadError
// is matchable through errors.Is against the ErrOverloaded sentinel.
func TestOverloadErrorUnwraps(t *testing.T) {
	err := error(&OverloadError{Op: "put", Headroom: 0.01, State: live.DegBackpressure})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("OverloadError does not unwrap to ErrOverloaded: %v", err)
	}
	for _, want := range []string{"put", "0.010", "backpressure"} {
		if msg := err.Error(); !contains(msg, want) {
			t.Errorf("error message %q missing %q", msg, want)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestEvictOldest exercises the store's recovery rung directly, before any
// engine goroutine runs: entries evict in per-shard insertion order, stale
// FIFO entries (deleted keys) are skipped without counting, and Len reflects
// every removal.
func TestEvictOldest(t *testing.T) {
	eng := live.NewEngine(live.Config{
		Objects:     1 << 12,
		ExtMutators: 1,
		Tracers:     1,
		Duration:    10 * time.Millisecond,
	})
	st := NewStore(eng, StoreConfig{Shards: 4, Buckets: 16})
	m := eng.ExtMutator(0)

	const n = 40
	for k := uint64(0); k < n; k++ {
		if !st.Put(m, k) {
			t.Fatalf("put %d failed on an empty heap", k)
		}
	}
	if got := st.Len(); got != n {
		t.Fatalf("store has %d entries, want %d", got, n)
	}

	// Delete a few keys: their FIFO entries go stale and must not count
	// against the eviction quota.
	for _, k := range []uint64{0, 1, 2, 3} {
		if !st.Delete(m, k) {
			t.Fatalf("delete %d failed", k)
		}
	}

	if got := st.EvictOldest(m, 10); got != 10 {
		t.Fatalf("evicted %d entries, want 10", got)
	}
	if got := st.Len(); got != n-4-10 {
		t.Fatalf("store has %d entries after eviction, want %d", got, n-4-10)
	}

	// Draining the rest: the count must match exactly what was left, and a
	// further eviction on an empty store must report zero.
	if got := st.EvictOldest(m, n); got != n-4-10 {
		t.Fatalf("drain evicted %d, want %d", got, n-4-10)
	}
	if got := st.Len(); got != 0 {
		t.Fatalf("store has %d entries after drain, want 0", got)
	}
	if got := st.EvictOldest(m, 5); got != 0 {
		t.Fatalf("empty store evicted %d entries", got)
	}
}

// TestEvictionFIFOBounded churns a few keys through many delete/re-put
// rounds: the shard's eviction FIFO must stay within its compaction bound
// (about twice the live keys) instead of growing with the requests served,
// and eviction must still take the never-deleted keys first, in insertion
// order, then every churned key exactly once.
func TestEvictionFIFOBounded(t *testing.T) {
	eng := live.NewEngine(live.Config{
		Objects:     1 << 15,
		ExtMutators: 1,
		Tracers:     1,
		Duration:    10 * time.Millisecond,
	})
	st := NewStore(eng, StoreConfig{Shards: 1, Buckets: 16, ValueObjs: 1})
	m := eng.ExtMutator(0)
	sh := &st.shards[0]
	put := func(k uint64) {
		if !st.Put(m, k) {
			t.Fatalf("put %d failed", k)
		}
	}

	const old, churned, rounds = 8, 8, 2000
	for k := uint64(0); k < old; k++ {
		put(k)
	}
	maxLen := 0
	for r := 0; r < rounds; r++ {
		k := uint64(100 + r%churned)
		if r >= churned && !st.Delete(m, k) {
			t.Fatalf("round %d: delete %d failed", r, k)
		}
		put(k)
		maxLen = max(maxLen, len(sh.order))
	}
	if bound := 2*(old+churned) + 64 + 1; maxLen > bound {
		t.Fatalf("eviction FIFO reached %d entries for %d live keys (bound %d)", maxLen, old+churned, bound)
	}

	for k := uint64(0); k < old; k++ {
		if got := st.EvictOldest(m, 1); got != 1 {
			t.Fatalf("evict #%d removed %d entries", k, got)
		}
		if _, ok := sh.index[k]; ok {
			t.Fatalf("evict #%d did not take key %d, the oldest", k, k)
		}
		if got, want := st.Len(), old+churned-int(k)-1; got != want {
			t.Fatalf("after evict #%d: %d entries, want %d", k, got, want)
		}
	}
	if got := st.EvictOldest(m, old+churned); got != churned {
		t.Fatalf("drain evicted %d churned keys, want %d", got, churned)
	}
	if st.Len() != 0 {
		t.Fatalf("%d entries left after drain", st.Len())
	}
}

// TestAdmissionShedsUnderOverload runs the full stack at 2x offered load with
// an aggressive watermark: admission control must shed real traffic, the
// request accounting identity must absorb the sheds as failures, and the run
// must survive with the oracle intact.
func TestAdmissionShedsUnderOverload(t *testing.T) {
	const clients = 4
	dur := 400 * time.Millisecond
	if testing.Short() {
		dur = 150 * time.Millisecond
	}
	eng := live.NewEngine(live.Config{
		Objects:         1 << 12,
		RootsPerMutator: 8,
		ExtMutators:     clients,
		Tracers:         2,
		BgTracers:       1,
		Packets:         16,
		PacketCap:       8,
		Duration:        dur,
		Seed:            5,
		FaultOptions: live.FaultOptions{
			Faults:       faultinject.MustParse("live.overload=on", 7),
			WedgeTimeout: 15 * time.Second,
		},
		LadderOptions: live.LadderOptions{Ladder: live.LadderConfig{Enabled: true, BackpressureWait: 5 * time.Millisecond}},
	})
	st := NewStore(eng, StoreConfig{Shards: 4, Buckets: 16})
	lg := NewLoadGen(eng, st, LoadConfig{
		Clients:  clients,
		Keys:     512,
		ChurnOps: 120,
		Seed:     5,
		Duration: dur,
		// A watermark this high turns shedding on almost immediately under
		// the amplifier — the test wants the shed path, not a borderline run.
		Admission: AdmissionConfig{Enabled: true, ShedWatermark: 0.5},
	})
	lg.Start()
	rep := eng.Run()
	res := lg.Wait()
	t.Logf("\n%s\n%s", rep, res)

	if rep.Wedged {
		t.Fatalf("run wedged:\n%s", rep.WedgeDiagnosis)
	}
	if rep.LostObjects != 0 || len(rep.Violations) > 0 {
		t.Fatalf("oracle: lost %d, violations %v", rep.LostObjects, rep.Violations)
	}
	if res.Issued != res.Completed+res.Failed {
		t.Fatalf("request accounting broken: issued %d != completed %d + failed %d",
			res.Issued, res.Completed, res.Failed)
	}
	if res.Shed == 0 {
		t.Error("watermark 0.5 under 2x overload never shed a request")
	}
	if res.Shed > res.Failed {
		t.Errorf("shed %d > failed %d: sheds must be a subset of failures", res.Shed, res.Failed)
	}
	if res.Completed == 0 {
		t.Error("admission control starved the server entirely")
	}
}
