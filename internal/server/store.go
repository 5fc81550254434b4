package server

import (
	"fmt"
	"sync"

	"mcgc/internal/heapsim"
	"mcgc/internal/live"
)

// Entry slot layout. Every stored value is a chain of arena objects: the
// head entry links into its shard bucket's doubly-linked list through
// slotNext/slotPrev, and hangs its payload chain (ValueObjs-1 further
// objects, singly linked through slotNext) off slotPayload. Payload objects
// only use slotNext. Requires RefsPerObject >= 3.
const (
	slotNext    = 0
	slotPrev    = 1
	slotPayload = 2
)

// StoreConfig sizes the store. Zero fields take defaults.
type StoreConfig struct {
	// Shards is the lock-striping width; rounded up to a power of two so
	// shard routing is key & (shards-1) — the issue's "key % shards" with a
	// power-of-two divisor. Default 8.
	Shards int
	// Buckets is the number of collector root slots (bucket-chain heads) per
	// shard. Default 64.
	Buckets int
	// ValueObjs is how many arena objects one stored value occupies (the
	// head entry plus ValueObjs-1 payload objects). Default 2.
	ValueObjs int
}

func (c StoreConfig) withDefaults() StoreConfig {
	if c.Shards == 0 {
		c.Shards = 8
	}
	if c.Buckets == 0 {
		c.Buckets = 64
	}
	if c.ValueObjs == 0 {
		c.ValueObjs = 2
	}
	return c
}

// Store is the sharded in-memory KV store. Each shard is a mutex, a
// key→entry index (ordinary Go map — the *keys* are metadata; only the
// *values* live in the collected arena) and a RootSet of bucket heads that
// makes the shard's whole live set reachable from collector roots. Handlers
// pass their own *live.Mut: allocation, barrier stores and loads are charged
// to the requesting client, exactly like a server thread running in a
// per-thread allocation context.
type Store struct {
	cfg    StoreConfig
	mask   uint64
	shards []storeShard
}

type storeShard struct {
	mu    sync.Mutex
	index map[uint64]heapsim.Addr
	roots *live.RootSet
	// order is the shard's insertion-order FIFO for EvictOldest: keys append
	// on fresh insert (not on replacement — a replaced key keeps its original
	// position, so "oldest" means oldest key, not oldest value). Deleted keys
	// linger as stale entries and are skipped lazily when popped; a key
	// deleted and re-put appears twice, and the first pop evicts whichever
	// entry is live then. All approximations in the direction that matters:
	// eviction is an emergency-recovery path, not an LRU. compactOrder bounds
	// the stale backlog, so the FIFO stays proportional to the live keys
	// rather than to the requests served.
	order []uint64
}

// compactOrder rewrites the shard's FIFO in place once it holds more than
// about twice the live keys: stale keys and later duplicates go, and the
// first occurrence of every live key keeps its position — the order
// EvictOldest would have evicted in. Caller holds the shard lock. The
// threshold makes the cost amortized O(1) per insert.
func (sh *storeShard) compactOrder() {
	if len(sh.order) <= 2*len(sh.index)+64 {
		return
	}
	kept := make(map[uint64]struct{}, len(sh.index))
	out := sh.order[:0]
	for _, k := range sh.order {
		if _, live := sh.index[k]; !live {
			continue
		}
		if _, dup := kept[k]; dup {
			continue
		}
		kept[k] = struct{}{}
		out = append(out, k)
	}
	sh.order = out
}

// NewStore builds the store and registers its per-shard root sets with the
// engine; it must therefore run before eng.Run.
func NewStore(eng *live.Engine, cfg StoreConfig) *Store {
	cfg = cfg.withDefaults()
	if cfg.Shards < 1 || cfg.Buckets < 1 || cfg.ValueObjs < 1 {
		panic(fmt.Sprintf("server: bad store config %+v", cfg))
	}
	shards := 1
	for shards < cfg.Shards {
		shards <<= 1
	}
	cfg.Shards = shards
	if eng.Arena().RefsPerObject() < 3 {
		panic(fmt.Sprintf("server: store needs >= 3 ref slots per object, arena has %d",
			eng.Arena().RefsPerObject()))
	}
	s := &Store{cfg: cfg, mask: uint64(shards - 1), shards: make([]storeShard, shards)}
	for i := range s.shards {
		s.shards[i].index = make(map[uint64]heapsim.Addr)
		s.shards[i].roots = eng.NewRootSet(cfg.Buckets)
	}
	return s
}

// Config returns the resolved store configuration.
func (s *Store) Config() StoreConfig { return s.cfg }

func (s *Store) shardOf(key uint64) *storeShard { return &s.shards[key&s.mask] }

// bucketOf spreads keys of one shard over its bucket heads. The shard bits
// are shifted out first so bucket occupancy is not aliased to shard routing.
func (s *Store) bucketOf(key uint64) int {
	return int((key >> uint(popcount(s.mask))) % uint64(s.cfg.Buckets))
}

func popcount(x uint64) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

// Put stores a fresh value chain under key, replacing (and unlinking) any
// previous entry. The allocations happen outside the shard lock — an
// allocation can stall on a cache refill paying tax, and a safepoint poll
// must never run while a shard is locked — and the entry goes live only
// when linked under the lock. ok is false on heap exhaustion; a partially
// built chain is simply abandoned (unreachable, collected next cycle).
func (s *Store) Put(m *live.Mut, key uint64) bool {
	head, ok := m.Alloc()
	if !ok {
		return false
	}
	tail := head
	for i := 1; i < s.cfg.ValueObjs; i++ {
		p, allocOK := m.Alloc()
		if !allocOK {
			return false
		}
		if tail == head {
			m.Store(head, slotPayload, p)
		} else {
			m.Store(tail, slotNext, p)
		}
		tail = p
	}
	sh, b := s.shardOf(key), s.bucketOf(key)
	sh.mu.Lock()
	next := sh.roots.Get(b)
	m.Store(head, slotNext, next)
	m.Store(head, slotPrev, heapsim.Nil)
	if next != heapsim.Nil {
		m.Store(next, slotPrev, head)
	}
	sh.roots.Set(b, head)
	old, existed := sh.index[key]
	sh.index[key] = head
	if existed {
		s.unlink(m, sh, b, old)
	} else {
		sh.order = append(sh.order, key)
		sh.compactOrder()
	}
	sh.mu.Unlock()
	return true
}

// EvictOldest removes up to n entries in approximate insertion order and
// returns how many were actually evicted. Each shard keeps a FIFO of inserted
// keys; eviction takes an equal quota from every shard, popping and skipping
// stale queue entries, so one pass spreads the damage instead of emptying
// shard 0 first. This is the recovery rung of the server's admission control:
// when a put fails even after the engine's own backpressure, the oldest
// stored values are the load we chose to shed.
func (s *Store) EvictOldest(m *live.Mut, n int) int {
	if n <= 0 {
		return 0
	}
	quota := (n + len(s.shards) - 1) / len(s.shards)
	evicted := 0
	for i := range s.shards {
		if evicted >= n {
			break
		}
		sh := &s.shards[i]
		sh.mu.Lock()
		taken := 0
		for taken < quota && evicted < n && len(sh.order) > 0 {
			key := sh.order[0]
			sh.order = sh.order[1:]
			a, ok := sh.index[key]
			if !ok {
				continue // stale: deleted (or already evicted) since insert
			}
			s.unlink(m, sh, s.bucketOf(key), a)
			delete(sh.index, key)
			taken++
			evicted++
		}
		sh.mu.Unlock()
	}
	return evicted
}

// Get looks key up and, on a hit, walks the payload chain (the handler
// "deserializing" the value) and pins the entry into the client's root slot
// pin before the shard lock is released. The pin is what keeps an entry
// alive for the client even if another client deletes it concurrently — the
// classic reader-holds-reference pattern a collector must honor.
func (s *Store) Get(m *live.Mut, key uint64, pin int) bool {
	sh := s.shardOf(key)
	sh.mu.Lock()
	a, ok := sh.index[key]
	if ok {
		for p := m.Load(a, slotPayload); p != heapsim.Nil; p = m.Load(p, slotNext) {
		}
		m.SetRoot(pin, a)
	}
	sh.mu.Unlock()
	return ok
}

// Delete removes key's entry, unlinking it from its bucket chain. The
// payload chain stays attached to the unlinked head, so a reader that
// pinned the entry still sees a consistent value; with no pins the whole
// chain is garbage at the next cycle. ok reports whether the key existed.
func (s *Store) Delete(m *live.Mut, key uint64) bool {
	sh, b := s.shardOf(key), s.bucketOf(key)
	sh.mu.Lock()
	a, ok := sh.index[key]
	if ok {
		s.unlink(m, sh, b, a)
		delete(sh.index, key)
	}
	sh.mu.Unlock()
	return ok
}

// unlink splices entry x out of bucket b's doubly-linked chain. Caller holds
// the shard lock. The bucket links of x are cleared so the chain it leaves
// behind does not retain its neighbors once x itself is only held by pins.
func (s *Store) unlink(m *live.Mut, sh *storeShard, b int, x heapsim.Addr) {
	next := m.Load(x, slotNext)
	prev := m.Load(x, slotPrev)
	if prev == heapsim.Nil {
		sh.roots.Set(b, next)
	} else {
		m.Store(prev, slotNext, next)
	}
	if next != heapsim.Nil {
		m.Store(next, slotPrev, prev)
	}
	m.Store(x, slotNext, heapsim.Nil)
	m.Store(x, slotPrev, heapsim.Nil)
}

// Len returns the total number of entries across all shards.
func (s *Store) Len() int {
	n := 0
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		n += len(sh.index)
		sh.mu.Unlock()
	}
	return n
}

// Entries calls f under each shard's lock with every (key, head) pair —
// post-run verification walks the index against the arena's liveness bits.
func (s *Store) Entries(f func(key uint64, head heapsim.Addr)) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for k, a := range sh.index {
			f(k, a)
		}
		sh.mu.Unlock()
	}
}
