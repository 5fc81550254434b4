// Package bitvec implements the dense bit vectors the collector keeps
// alongside the heap: the mark bit vector and the allocation bit vector,
// each holding one bit per 8-byte heap word (Section 2 of the paper).
//
// Mark bits are set concurrently by many tracing threads, so the vector
// offers atomic test-and-set. Bitwise sweep (Section 2.2) needs fast scans
// for runs of clear bits, which NextSet/NextClear provide using per-word
// bit tricks rather than per-bit loops.
package bitvec

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync/atomic"
)

const (
	wordBits  = 64
	wordShift = 6
	wordMask  = wordBits - 1
)

// Vector is a fixed-length bit vector. The zero value is unusable; create
// vectors with New.
type Vector struct {
	bits []uint64
	n    int
}

// New returns a vector of n bits, all clear.
func New(n int) *Vector {
	if n < 0 {
		panic(fmt.Sprintf("bitvec: negative length %d", n))
	}
	return &Vector{
		bits: make([]uint64, (n+wordMask)/wordBits),
		n:    n,
	}
}

// Len returns the number of bits in the vector.
func (v *Vector) Len() int { return v.n }

func (v *Vector) check(i int) {
	if i < 0 || i >= v.n {
		panic(fmt.Sprintf("bitvec: index %d out of range [0,%d)", i, v.n))
	}
}

// Test reports whether bit i is set. It uses a plain load; callers that
// race with concurrent setters and need a fresh answer should use TestAcquire.
func (v *Vector) Test(i int) bool {
	v.check(i)
	return v.bits[i>>wordShift]&(1<<(uint(i)&wordMask)) != 0
}

// TestAcquire reports whether bit i is set using an atomic load.
func (v *Vector) TestAcquire(i int) bool {
	v.check(i)
	return atomic.LoadUint64(&v.bits[i>>wordShift])&(1<<(uint(i)&wordMask)) != 0
}

// Set sets bit i without synchronization. It must not race with other
// mutations of the same word.
func (v *Vector) Set(i int) {
	v.check(i)
	v.bits[i>>wordShift] |= 1 << (uint(i) & wordMask)
}

// Clear clears bit i without synchronization.
func (v *Vector) Clear(i int) {
	v.check(i)
	v.bits[i>>wordShift] &^= 1 << (uint(i) & wordMask)
}

// casBackoff yields the processor once a word-CAS loop has lost a few
// rounds: neighbouring-bit writers sharing a word resolve in a try or two,
// so persistent failure means a sustained contender that needs cycles to
// finish (fault injection can amplify contention arbitrarily).
func casBackoff(retries int) {
	if retries >= 4 {
		runtime.Gosched()
	}
}

// TestAndSet atomically sets bit i and reports whether this call changed it
// from clear to set. Concurrent tracers use this to claim an object: exactly
// one of the racing callers receives true.
func (v *Vector) TestAndSet(i int) bool {
	v.check(i)
	addr := &v.bits[i>>wordShift]
	mask := uint64(1) << (uint(i) & wordMask)
	for retries := 0; ; retries++ {
		old := atomic.LoadUint64(addr)
		if old&mask != 0 {
			return false
		}
		if atomic.CompareAndSwapUint64(addr, old, old|mask) {
			return true
		}
		casBackoff(retries)
	}
}

// TestAndSetAtomic atomically sets bit i with a single fetch-or (no CAS
// retry loop) and reports whether this call changed it from clear to set.
// It is the claim operation the live engine's tracers use under real
// contention, where the CAS loop of TestAndSet would retry whenever two
// tracers claim neighbouring bits of the same word.
func (v *Vector) TestAndSetAtomic(i int) bool {
	v.check(i)
	mask := uint64(1) << (uint(i) & wordMask)
	return atomic.OrUint64(&v.bits[i>>wordShift], mask)&mask == 0
}

// Words returns the number of 64-bit words backing the vector.
func (v *Vector) Words() int { return len(v.bits) }

// LoadWord atomically loads backing word w. Bit i of the result is bit
// w*64+i of the vector.
func (v *Vector) LoadWord(w int) uint64 {
	return atomic.LoadUint64(&v.bits[w])
}

// OrWord atomically ors mask into backing word w and returns the word's
// previous value. Concurrent writers sharing a word (e.g. card dirtying)
// batch up to 64 bit-sets into one fetch-or.
func (v *Vector) OrWord(w int, mask uint64) uint64 {
	return atomic.OrUint64(&v.bits[w], mask)
}

// AndNotWord atomically clears the bits of mask in backing word w and
// returns the word's previous value. The garbage listing retracts a whole
// word's worth of garbage allocation bits (Alloc &^ Mark) in one operation.
func (v *Vector) AndNotWord(w int, mask uint64) uint64 {
	return atomic.AndUint64(&v.bits[w], ^mask)
}

// TakeWord atomically reads and clears backing word w, returning the bits
// that were set. It is the register-and-clear primitive of the concurrent
// card-cleaning path: every bit set at the instant of the swap is observed
// by exactly one taker, and bits set afterwards are preserved for the next
// pass — no set is ever lost between a separate load and clear.
func (v *Vector) TakeWord(w int) uint64 {
	return atomic.SwapUint64(&v.bits[w], 0)
}

// SetAtomic atomically sets bit i.
func (v *Vector) SetAtomic(i int) {
	v.check(i)
	addr := &v.bits[i>>wordShift]
	mask := uint64(1) << (uint(i) & wordMask)
	for retries := 0; ; retries++ {
		old := atomic.LoadUint64(addr)
		if old&mask != 0 || atomic.CompareAndSwapUint64(addr, old, old|mask) {
			return
		}
		casBackoff(retries)
	}
}

// ClearAtomic atomically clears bit i.
func (v *Vector) ClearAtomic(i int) {
	v.check(i)
	addr := &v.bits[i>>wordShift]
	mask := uint64(1) << (uint(i) & wordMask)
	for retries := 0; ; retries++ {
		old := atomic.LoadUint64(addr)
		if old&mask == 0 || atomic.CompareAndSwapUint64(addr, old, old&^mask) {
			return
		}
		casBackoff(retries)
	}
}

// ClearAll clears every bit. Callers must ensure no concurrent access.
func (v *Vector) ClearAll() {
	clear(v.bits)
}

// ClearRange clears bits [from, to). Callers must ensure no concurrent
// access to the affected words.
func (v *Vector) ClearRange(from, to int) {
	if from < 0 || to > v.n || from > to {
		panic(fmt.Sprintf("bitvec: bad range [%d,%d) for length %d", from, to, v.n))
	}
	if from == to {
		return
	}
	first, last := from>>wordShift, (to-1)>>wordShift
	lowMask := ^uint64(0) << (uint(from) & wordMask)
	highMask := ^uint64(0) >> (wordMask - (uint(to-1) & wordMask))
	if first == last {
		v.bits[first] &^= lowMask & highMask
		return
	}
	v.bits[first] &^= lowMask
	for w := first + 1; w < last; w++ {
		v.bits[w] = 0
	}
	v.bits[last] &^= highMask
}

// SetRange sets bits [from, to). Callers must ensure no concurrent access.
func (v *Vector) SetRange(from, to int) {
	if from < 0 || to > v.n || from > to {
		panic(fmt.Sprintf("bitvec: bad range [%d,%d) for length %d", from, to, v.n))
	}
	if from == to {
		return
	}
	first, last := from>>wordShift, (to-1)>>wordShift
	lowMask := ^uint64(0) << (uint(from) & wordMask)
	highMask := ^uint64(0) >> (wordMask - (uint(to-1) & wordMask))
	if first == last {
		v.bits[first] |= lowMask & highMask
		return
	}
	v.bits[first] |= lowMask
	for w := first + 1; w < last; w++ {
		v.bits[w] = ^uint64(0)
	}
	v.bits[last] |= highMask
}

// NextSet returns the index of the first set bit at or after from, or -1 if
// none exists. It scans word-at-a-time.
func (v *Vector) NextSet(from int) int {
	if from < 0 {
		from = 0
	}
	if from >= v.n {
		return -1
	}
	w := from >> wordShift
	word := v.bits[w] >> (uint(from) & wordMask)
	if word != 0 {
		i := from + bits.TrailingZeros64(word)
		if i < v.n {
			return i
		}
		return -1
	}
	for w++; w < len(v.bits); w++ {
		if v.bits[w] != 0 {
			i := w<<wordShift + bits.TrailingZeros64(v.bits[w])
			if i < v.n {
				return i
			}
			return -1
		}
	}
	return -1
}

// NextClear returns the index of the first clear bit at or after from, or -1
// if none exists.
func (v *Vector) NextClear(from int) int {
	if from < 0 {
		from = 0
	}
	if from >= v.n {
		return -1
	}
	w := from >> wordShift
	word := ^(v.bits[w]) >> (uint(from) & wordMask)
	if word != 0 {
		i := from + bits.TrailingZeros64(word)
		if i < v.n {
			return i
		}
		return -1
	}
	for w++; w < len(v.bits); w++ {
		if v.bits[w] != ^uint64(0) {
			i := w<<wordShift + bits.TrailingZeros64(^v.bits[w])
			if i < v.n {
				return i
			}
			return -1
		}
	}
	return -1
}

// Count returns the number of set bits in the whole vector.
func (v *Vector) Count() int {
	total := 0
	for _, w := range v.bits {
		total += bits.OnesCount64(w)
	}
	return total
}

// CountRange returns the number of set bits in [from, to).
func (v *Vector) CountRange(from, to int) int {
	if from < 0 || to > v.n || from > to {
		panic(fmt.Sprintf("bitvec: bad range [%d,%d) for length %d", from, to, v.n))
	}
	total := 0
	for i := v.NextSet(from); i >= 0 && i < to; i = v.NextSet(i + 1) {
		total++
	}
	return total
}

// CopyFrom overwrites this vector's bits with src's. The lengths must match.
// Used by the card-cleaning snapshot step (Section 5.3).
func (v *Vector) CopyFrom(src *Vector) {
	if v.n != src.n {
		panic(fmt.Sprintf("bitvec: length mismatch %d != %d", v.n, src.n))
	}
	copy(v.bits, src.bits)
}

// PrevSet returns the index of the last set bit at or before from, or -1 if
// none exists.
func (v *Vector) PrevSet(from int) int {
	if from >= v.n {
		from = v.n - 1
	}
	if from < 0 {
		return -1
	}
	w := from >> wordShift
	word := v.bits[w] & (^uint64(0) >> (wordMask - (uint(from) & wordMask)))
	if word != 0 {
		return w<<wordShift + 63 - bits.LeadingZeros64(word)
	}
	for w--; w >= 0; w-- {
		if v.bits[w] != 0 {
			return w<<wordShift + 63 - bits.LeadingZeros64(v.bits[w])
		}
	}
	return -1
}
