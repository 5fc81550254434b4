// Package live is the second backend for the collector: where
// internal/machine runs the CGC algorithms on a simulated SMP with virtual
// time, this package runs them on a real shared heap mutated by real
// goroutines, under Go's memory model and the race detector.
//
// The heap is an arena of uniform objects, each a fixed number of reference
// slots stored as atomic words. Objects are addressed by heapsim.Addr
// (index, 1-based; 0 is nil) so the existing lock-free workpack.Pool carries
// live-engine grey references unchanged. N mutator goroutines allocate from
// a sharded lock-free free list, rewire graph edges and drop roots;
// M tracer goroutines (plus throttled background tracers) drain the packet
// pool concurrently. Everything the simulator can only assert by
// construction is exercised here under genuine contention: ABA-safe
// versioned-head CAS, the get-before-return termination protocol, overflow
// degrading to mark-and-dirty-card, atomic card dirtying against the
// three-step cleaning protocol, and the Section 5.1/5.2 publication
// protocols mapped onto sync/atomic.
//
// Correctness is established by an STW oracle: with mutators parked and the
// concurrent mark closed, a sequential mark from the live roots must be a
// subset of the concurrent mark set, and the difference is exactly floating
// garbage. See Engine.
package live

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"mcgc/internal/bitvec"
	"mcgc/internal/cardtable"
	"mcgc/internal/heapsim"
)

// MaxFreeShards bounds the free-list shard count (PushFreeAll partitions
// into fixed-size per-shard chain heads).
const MaxFreeShards = 64

// freeShard is one shard of the free list: a lock-free LIFO over object
// addresses with a versioned head (the same ABA discipline as workpack's
// sub-pools). Padded so adjacent shards never share a cache line.
type freeShard struct {
	head    atomic.Uint64 // version<<32 | addr (addr 0 = empty)
	count   atomic.Int64
	cas     atomic.Int64 // head-CAS attempts on this shard
	retries atomic.Int64 // failed head CASes
	_       [4]int64
}

// Arena is the live engine's shared heap: numObjects uniform objects of
// refsPer reference slots each, plus the mark and allocation bit vectors
// and the card table. Object addresses run 1..numObjects; address 0 is nil,
// matching heapsim's reserved word 0.
type Arena struct {
	numObjects int
	refsPer    int
	slots      []atomic.Uint32 // (addr-1)*refsPer + slot

	// Mark bits are set by concurrent tracers (TestAndSetAtomic claims);
	// Alloc bits are published in batches by mutators (Section 5.2).
	Mark  *bitvec.Vector
	Alloc *bitvec.Vector
	// Cards maps object addresses to 64-object cards; the concurrent
	// dirtying/registration path of cardtable is used throughout.
	Cards *cardtable.Table

	// Free list: sharded by address so mutators with distinct home shards
	// allocate and free without touching the same head word. Every object
	// lives on the shard addr & shardMask; a mutator pops in batches from
	// its home shard and steals from the others only on exhaustion.
	next        []atomic.Int32 // next[addr-1] = next free addr, or 0
	shards      []freeShard
	shardMask   uint32
	shardSteals atomic.Int64 // batch pops served by a non-home shard
}

// DefaultFreeShards picks a power-of-two shard count for an arena of n
// objects: enough to spread allocation-rate contention, never so many that
// tiny test arenas get empty shards.
func DefaultFreeShards(n int) int {
	s := 1
	for s < 8 && n/(2*s) >= 256 {
		s *= 2
	}
	return s
}

// NewArena builds an arena with every object on the free list, all bits
// clear and all slots nil, using DefaultFreeShards shards.
func NewArena(numObjects, refsPer int) *Arena {
	return NewArenaShards(numObjects, refsPer, 0)
}

// NewArenaShards builds an arena with an explicit free-list shard count
// (rounded down to a power of two; 0 means DefaultFreeShards, negative
// means a single shard).
func NewArenaShards(numObjects, refsPer, shards int) *Arena {
	if numObjects < 1 || numObjects > 1<<24 {
		panic(fmt.Sprintf("live: bad arena size %d", numObjects))
	}
	if refsPer < 1 {
		panic(fmt.Sprintf("live: bad refs-per-object %d", refsPer))
	}
	if shards == 0 {
		shards = DefaultFreeShards(numObjects)
	}
	if shards < 1 {
		shards = 1
	}
	if shards > MaxFreeShards {
		shards = MaxFreeShards
	}
	pow := 1
	for pow*2 <= shards {
		pow *= 2
	}
	shards = pow
	a := &Arena{
		numObjects: numObjects,
		refsPer:    refsPer,
		slots:      make([]atomic.Uint32, numObjects*refsPer),
		Mark:       bitvec.New(numObjects + 1),
		Alloc:      bitvec.New(numObjects + 1),
		Cards:      cardtable.New(numObjects + 1),
		next:       make([]atomic.Int32, numObjects),
		shards:     make([]freeShard, shards),
		shardMask:  uint32(shards - 1),
	}
	// Seed each shard with its residue class directly (no CAS needed before
	// the arena is shared), walking high to low so low addresses allocate
	// first within every shard.
	var heads [MaxFreeShards]uint32
	var counts [MaxFreeShards]int64
	for i := numObjects; i >= 1; i-- {
		s := uint32(i) & a.shardMask
		a.next[i-1].Store(int32(heads[s]))
		heads[s] = uint32(i)
		counts[s]++
	}
	for s := range a.shards {
		a.shards[s].head.Store(uint64(heads[s]))
		a.shards[s].count.Store(counts[s])
	}
	return a
}

// NumObjects returns the arena's object count.
func (a *Arena) NumObjects() int { return a.numObjects }

// RefsPerObject returns the number of reference slots per object.
func (a *Arena) RefsPerObject() int { return a.refsPer }

// NumFreeShards returns the free-list shard count.
func (a *Arena) NumFreeShards() int { return len(a.shards) }

// shardOf returns the home shard of an address.
func (a *Arena) shardOf(addr heapsim.Addr) int { return int(uint32(addr) & a.shardMask) }

// FreeLen returns the current free-list length across all shards (racy
// estimate, exact at quiescence).
func (a *Arena) FreeLen() int64 {
	var n int64
	for s := range a.shards {
		n += a.shards[s].count.Load()
	}
	return n
}

// ShardLen returns one shard's free count (racy estimate).
func (a *Arena) ShardLen(s int) int64 { return a.shards[s].count.Load() }

// FreeListCASes returns the total head-CAS attempts across shards.
func (a *Arena) FreeListCASes() int64 {
	var n int64
	for s := range a.shards {
		n += a.shards[s].cas.Load()
	}
	return n
}

// FreeListRetries returns the total failed head CASes across shards.
func (a *Arena) FreeListRetries() int64 {
	var n int64
	for s := range a.shards {
		n += a.shards[s].retries.Load()
	}
	return n
}

// ShardSteals returns how many batch pops were served by a non-home shard.
func (a *Arena) ShardSteals() int64 { return a.shardSteals.Load() }

// LoadRef atomically loads slot j of the object at addr.
func (a *Arena) LoadRef(addr heapsim.Addr, j int) heapsim.Addr {
	return heapsim.Addr(a.slots[(int(addr)-1)*a.refsPer+j].Load())
}

// StoreRef atomically stores v into slot j of the object at addr. The
// caller is responsible for the write barrier (Engine.writeBarrier).
func (a *Arena) StoreRef(addr heapsim.Addr, j int, v heapsim.Addr) {
	a.slots[(int(addr)-1)*a.refsPer+j].Store(uint32(v))
}

// casBackoff yields the processor once a free-list CAS loop has lost a few
// rounds, bounding the busy-spin when every mutator allocates at once (or
// when fault injection amplifies the contention).
func casBackoff(retries int) {
	if retries >= 4 {
		runtime.Gosched()
	}
}

// popBatchFrom unlinks up to k objects from one shard with a single
// versioned-head CAS (walk the next links of the head snapshot, then swing
// the head past the run; the version tag discards any walk that raced). The
// result aliases into's backing array.
func (a *Arena) popBatchFrom(s, k int, into []heapsim.Addr) []heapsim.Addr {
	sh := &a.shards[s]
	for retries := 0; ; retries++ {
		into = into[:0]
		old := sh.head.Load()
		cur := heapsim.Addr(uint32(old))
		if cur == heapsim.Nil {
			return into
		}
		for len(into) < k && cur != heapsim.Nil {
			into = append(into, cur)
			cur = heapsim.Addr(uint32(a.next[cur-1].Load()))
		}
		sh.cas.Add(1)
		if sh.head.CompareAndSwap(old, (old>>32+1)<<32|uint64(cur)) {
			sh.count.Add(-int64(len(into)))
			return into
		}
		sh.retries.Add(1)
		casBackoff(retries)
	}
}

// PopFreeBatch takes up to k objects off the free list with one CAS on the
// first non-empty shard, scanning from the caller's home shard so distinct
// mutators stay on distinct head words. It returns an empty slice only when
// every shard was observed empty — the alloc-failure signal, unchanged from
// the single-list arena. Popped objects' alloc bits are clear: they belong
// to the caller's allocation cache until published (Section 5.2).
func (a *Arena) PopFreeBatch(home, k int, into []heapsim.Addr) []heapsim.Addr {
	n := len(a.shards)
	for i := 0; i < n; i++ {
		s := (home + i) & int(a.shardMask)
		got := a.popBatchFrom(s, k, into)
		if len(got) > 0 {
			if i > 0 {
				a.shardSteals.Add(1)
			}
			return got
		}
	}
	return into[:0]
}

// PopFree takes one object off the free list, or returns Nil when the heap
// is exhausted (every shard empty).
func (a *Arena) PopFree() heapsim.Addr {
	var buf [1]heapsim.Addr
	got := a.PopFreeBatch(0, 1, buf[:0])
	if len(got) == 0 {
		return heapsim.Nil
	}
	return got[0]
}

// pushChain links a pre-chained run head..tail of n objects onto shard s
// with one CAS.
func (a *Arena) pushChain(s int, head, tail heapsim.Addr, n int64) {
	sh := &a.shards[s]
	for retries := 0; ; retries++ {
		old := sh.head.Load()
		a.next[tail-1].Store(int32(uint32(old)))
		sh.cas.Add(1)
		if sh.head.CompareAndSwap(old, (old>>32+1)<<32|uint64(head)) {
			sh.count.Add(n)
			return
		}
		sh.retries.Add(1)
		casBackoff(retries)
	}
}

// PushFree returns an object to its home shard. The caller must have cleared
// its alloc bit and nilled its slots (sweep does both).
func (a *Arena) PushFree(addr heapsim.Addr) {
	a.pushChain(a.shardOf(addr), addr, addr, 1)
}

// PushFreeAll returns a batch of objects to the free list with at most one
// CAS per shard: a single pass chains the objects through their next links
// by home shard, then each chain is pushed whole. Only the caller touches
// the (free) objects, so the chaining stores cannot race.
func (a *Arena) PushFreeAll(objs []heapsim.Addr) {
	if len(objs) == 0 {
		return
	}
	var heads, tails [MaxFreeShards]heapsim.Addr
	var counts [MaxFreeShards]int64
	for _, o := range objs {
		s := a.shardOf(o)
		if heads[s] == heapsim.Nil {
			heads[s], tails[s] = o, o
		} else {
			a.next[tails[s]-1].Store(int32(o))
			tails[s] = o
		}
		counts[s]++
	}
	for s := range a.shards {
		if counts[s] > 0 {
			a.pushChain(s, heads[s], tails[s], counts[s])
		}
	}
}

// ZeroSlots nils every slot of the object at addr (sweep, before the object
// returns to the free list; the stores are atomic, but only the sweeper
// touches garbage).
func (a *Arena) ZeroSlots(addr heapsim.Addr) {
	base := (int(addr) - 1) * a.refsPer
	for j := 0; j < a.refsPer; j++ {
		a.slots[base+j].Store(0)
	}
}

// objectMask returns the bits of mark/allocation-vector word w that back
// object addresses: bit 0 of word 0 is the nil address, and the bits of the
// last word past numObjects back no object. A card is exactly one such word.
func (a *Arena) objectMask(w int) uint64 {
	m := ^uint64(0)
	if w == 0 {
		m &^= 1
	}
	if n := a.numObjects + 1 - w*64; n <= 0 {
		return 0
	} else if n < 64 {
		m &= 1<<uint(n) - 1
	}
	return m
}
