package live

import (
	"sync"
	"testing"
	"time"

	"mcgc/internal/heapsim"
)

// Free-list conservation under contention: objects popped concurrently are
// unique while held, and every object is back on the list at quiescence.
func TestArenaFreeListConcurrent(t *testing.T) {
	const (
		objects = 4096
		workers = 8
		rounds  = 5000
	)
	a := NewArena(objects, 2)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			held := make([]heapsim.Addr, 0, 16)
			for r := 0; r < rounds; r++ {
				if len(held) < 16 {
					if obj := a.PopFree(); obj != heapsim.Nil {
						held = append(held, obj)
					}
				}
				if r%3 == 0 && len(held) > 0 {
					a.PushFree(held[len(held)-1])
					held = held[:len(held)-1]
				}
			}
			for _, obj := range held {
				a.PushFree(obj)
			}
		}()
	}
	wg.Wait()
	if got := a.FreeLen(); got != objects {
		t.Fatalf("free list has %d objects at quiescence, want %d", got, objects)
	}
	// Walk the list: every object exactly once.
	seen := make(map[heapsim.Addr]bool)
	for i := 0; i < objects; i++ {
		obj := a.PopFree()
		if obj == heapsim.Nil {
			t.Fatalf("list ran out after %d pops (count said %d)", i, objects)
		}
		if seen[obj] {
			t.Fatalf("object %d linked twice", obj)
		}
		seen[obj] = true
	}
	if a.PopFree() != heapsim.Nil {
		t.Fatal("list still non-empty after full drain")
	}
}

// A card is one mark-vector word; objectMask keeps only the bits that back
// objects — not the nil address in card 0, nor the bits past the last object.
func TestArenaObjectMask(t *testing.T) {
	a := NewArena(100, 2)
	if got, want := a.objectMask(0), ^uint64(1); got != want {
		t.Fatalf("card 0 mask %#x, want %#x (objects [1,64))", got, want)
	}
	if got, want := a.objectMask(1), uint64(1)<<37-1; got != want {
		t.Fatalf("card 1 mask %#x, want %#x (objects [64,101))", got, want)
	}
	if got := a.objectMask(2); got != 0 {
		t.Fatalf("card 2 (past the arena) mask %#x, want 0", got)
	}
	full := NewArena(127, 2)
	if got := full.objectMask(1); got != ^uint64(0) {
		t.Fatalf("127-object arena: card 1 mask %#x, want every bit (objects [64,128))", got)
	}
}

// A short end-to-end run: cycles complete, the oracle is clean, and the
// pool and free list are quiescent afterwards.
func TestEngineShortRun(t *testing.T) {
	e := NewEngine(Config{
		Objects:  1 << 12,
		Mutators: 3,
		Tracers:  2,
		Duration: 300 * time.Millisecond,
		Seed:     42,
	})
	rep := e.Run()
	if rep.Cycles < 1 {
		t.Fatal("no cycles completed")
	}
	if rep.LostObjects != 0 || len(rep.Violations) > 0 {
		t.Fatalf("oracle violations: lost=%d %v", rep.LostObjects, rep.Violations)
	}
	if rep.ObjectsAllocated == 0 || rep.Marks == 0 || rep.Scans == 0 {
		t.Fatalf("engine idle: %+v", rep)
	}
	if !e.Pool().TracingDone() || !e.Pool().DeferredEmpty() {
		t.Fatal("packet pool not quiescent after Run")
	}
	// Conservation: allocated - freed - live-at-end floating remainder all
	// stay inside the arena, and the free list accounts for the rest.
	inUse := int64(e.Arena().NumObjects()) - e.Arena().FreeLen()
	if allocLive := rep.ObjectsAllocated - rep.ObjectsFreed; allocLive != inUse {
		t.Fatalf("allocated-freed = %d but %d objects off the free list", allocLive, inUse)
	}
}

// TestEngineShardingTiers runs the engine with each sharding tier forced on
// and forced off: both configurations must pass the oracle and the
// conservation checks, the sharded run must actually exercise the tiers
// (nonzero local hits, buffer flushes) and the unsharded run must not touch
// them at all (the pre-sharding behavior is still reachable).
func TestEngineShardingTiers(t *testing.T) {
	base := Config{
		Objects:  1 << 12,
		Mutators: 3,
		Tracers:  2,
		Duration: 300 * time.Millisecond,
		Seed:     11,
	}
	t.Run("sharded", func(t *testing.T) {
		cfg := base
		cfg.LocalCache, cfg.FreeShards, cfg.CardBuffer = 4, 4, 32
		e := NewEngine(cfg)
		rep := e.Run()
		if rep.LostObjects != 0 || len(rep.Violations) > 0 {
			t.Fatalf("sharded: lost=%d %v", rep.LostObjects, rep.Violations)
		}
		if e.Arena().NumFreeShards() != 4 {
			t.Fatalf("free shards = %d, want 4", e.Arena().NumFreeShards())
		}
		if rep.PoolLocalHits == 0 {
			t.Error("local packet caches never hit")
		}
		if rep.CardBufferFlushes == 0 {
			t.Error("card buffers never flushed")
		}
		if ce, cr := e.Pool().LocalCached(); ce != 0 || cr != 0 {
			t.Fatalf("local caches hold %d empty + %d ready after Run, want 0", ce, cr)
		}
	})
	t.Run("unsharded", func(t *testing.T) {
		cfg := base
		cfg.LocalCache, cfg.FreeShards, cfg.CardBuffer = -1, -1, -1
		e := NewEngine(cfg)
		rep := e.Run()
		if rep.LostObjects != 0 || len(rep.Violations) > 0 {
			t.Fatalf("unsharded: lost=%d %v", rep.LostObjects, rep.Violations)
		}
		if e.Arena().NumFreeShards() != 1 {
			t.Fatalf("free shards = %d, want 1", e.Arena().NumFreeShards())
		}
		if sum := rep.PoolLocalHits + rep.PoolSteals + rep.PoolSpills +
			rep.ArenaShardSteals + rep.CardBufferFlushes; sum != 0 {
			t.Fatalf("disabled tiers still counted traffic: %+v", rep)
		}
	})
}

// Each workload shape runs clean.
func TestEngineShapes(t *testing.T) {
	for _, shape := range []string{"mixed", "churn", "pointer"} {
		t.Run(shape, func(t *testing.T) {
			e := NewEngine(Config{
				Objects:  1 << 12,
				Mutators: 2,
				Tracers:  2,
				Duration: 200 * time.Millisecond,
				Seed:     7,
				Shape:    shape,
			})
			rep := e.Run()
			if rep.LostObjects != 0 || len(rep.Violations) > 0 {
				t.Fatalf("shape %s: lost=%d %v", shape, rep.LostObjects, rep.Violations)
			}
			if rep.Cycles < 1 || rep.ObjectsAllocated == 0 {
				t.Fatalf("shape %s idle: %+v", shape, rep)
			}
		})
	}
}
