package bitvec

import (
	stdbits "math/bits"
	"sync"
	"testing"
)

func TestTestAndSetAtomic(t *testing.T) {
	v := New(130)
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		if !v.TestAndSetAtomic(i) {
			t.Fatalf("TestAndSetAtomic(%d) on clear bit = false", i)
		}
		if v.TestAndSetAtomic(i) {
			t.Fatalf("TestAndSetAtomic(%d) on set bit = true", i)
		}
		if !v.Test(i) {
			t.Fatalf("bit %d not set", i)
		}
	}
	if got := v.Count(); got != 8 {
		t.Fatalf("Count = %d, want 8", got)
	}
}

func TestWordOps(t *testing.T) {
	v := New(128)
	if v.Words() != 2 {
		t.Fatalf("Words = %d, want 2", v.Words())
	}
	if old := v.OrWord(0, 0b1011); old != 0 {
		t.Fatalf("OrWord old = %#x, want 0", old)
	}
	if old := v.OrWord(0, 0b0110); old != 0b1011 {
		t.Fatalf("OrWord old = %#x, want 0b1011", old)
	}
	if got := v.LoadWord(0); got != 0b1111 {
		t.Fatalf("LoadWord = %#x, want 0b1111", got)
	}
	v.OrWord(1, 1<<63)
	if !v.Test(127) {
		t.Fatal("OrWord(1, 1<<63) did not set bit 127")
	}
	if got := v.TakeWord(0); got != 0b1111 {
		t.Fatalf("TakeWord = %#x, want 0b1111", got)
	}
	if got := v.LoadWord(0); got != 0 {
		t.Fatalf("word not cleared by TakeWord: %#x", got)
	}
	if got := v.TakeWord(1); got != 1<<63 {
		t.Fatalf("TakeWord(1) = %#x", got)
	}
}

// Concurrent claim: every bit is claimed by exactly one of the racing
// goroutines. Run with -race.
func TestTestAndSetAtomicConcurrent(t *testing.T) {
	const (
		bits    = 1 << 12
		workers = 8
	)
	v := New(bits)
	wins := make([][]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < bits; i++ {
				if v.TestAndSetAtomic(i) {
					wins[w] = append(wins[w], i)
				}
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for _, ws := range wins {
		total += len(ws)
	}
	if total != bits {
		t.Fatalf("claims = %d, want %d (each bit claimed exactly once)", total, bits)
	}
	if got := v.Count(); got != bits {
		t.Fatalf("Count = %d, want %d", got, bits)
	}
}

// Concurrent take-vs-or, checked by exact conservation: a setter that
// re-sets a (word, bit) the taker has already drained makes a second fresh
// set, which is legitimately taken a second time. So per (word, bit) the
// number of takes must equal the number of fresh sets — those whose OrWord
// returned the bit clear — and nothing may be left once the final sweep ran.
// Run with -race.
func TestTakeWordConcurrent(t *testing.T) {
	const (
		words   = 64
		setters = 4
		rounds  = 2000
	)
	v := New(words * 64)
	var wg sync.WaitGroup
	takes := make([]int, words*64) // owned by the taker until wg.Wait
	stop := make(chan struct{})
	take := func(w int) {
		for bits := v.TakeWord(w); bits != 0; bits &= bits - 1 {
			takes[w*64+stdbits.TrailingZeros64(bits)]++
		}
	}
	wg.Add(1)
	go func() { // taker
		defer wg.Done()
		for {
			select {
			case <-stop:
				// Final sweep after all setters are done.
				for w := 0; w < words; w++ {
					take(w)
				}
				return
			default:
			}
			for w := 0; w < words; w++ {
				take(w)
			}
		}
	}()
	fresh := make([][]int, setters) // per-setter fresh-set counts
	var swg sync.WaitGroup
	for s := 0; s < setters; s++ {
		fresh[s] = make([]int, words*64)
		swg.Add(1)
		go func(s int, mine []int) {
			defer swg.Done()
			// Word and bit advance by one per round (mod words, mod 64), so
			// every (word, bit) is re-set after the taker may have drained it.
			w, bit := s*rounds%words, s*7%64
			for r := 0; r < rounds; r++ {
				mask := uint64(1) << bit
				if v.OrWord(w, mask)&mask == 0 {
					mine[w*64+bit]++
				}
				w, bit = (w+1)%words, (bit+1)%64
			}
		}(s, fresh[s])
	}
	swg.Wait()
	close(stop)
	wg.Wait()
	sets, taken := 0, 0
	for i := range takes {
		want := 0
		for s := range fresh {
			want += fresh[s][i]
		}
		if takes[i] != want {
			t.Errorf("word %d bit %d: taken %d times, freshly set %d times", i/64, i%64, takes[i], want)
		}
		sets += want
		taken += takes[i]
	}
	if sets == 0 || sets != taken {
		t.Errorf("fresh sets %d, takes %d", sets, taken)
	}
	// Every word must be fully drained.
	for w := 0; w < words; w++ {
		if got := v.LoadWord(w); got != 0 {
			t.Fatalf("word %d still has bits %#x after final take", w, got)
		}
	}
}

// AndNotWord clears exactly the masked bits, reports the previous word, and
// leaves the neighbouring word alone.
func TestAndNotWord(t *testing.T) {
	v := New(130)
	v.OrWord(0, 0b1111)
	v.OrWord(1, 1<<63|1)
	if old := v.AndNotWord(0, 0b0101); old != 0b1111 {
		t.Fatalf("AndNotWord old = %#x, want 0b1111", old)
	}
	if got := v.LoadWord(0); got != 0b1010 {
		t.Fatalf("after AndNotWord word 0 = %#x, want 0b1010", got)
	}
	if old := v.AndNotWord(0, 0); old != 0b1010 || v.LoadWord(0) != 0b1010 {
		t.Fatalf("empty mask changed the word: old %#x now %#x", old, v.LoadWord(0))
	}
	if v.AndNotWord(1, 1<<63); v.Test(127) || !v.Test(64) || v.LoadWord(0) != 0b1010 {
		t.Fatalf("AndNotWord(1, 1<<63) cleared the wrong bits: %#x %#x", v.LoadWord(0), v.LoadWord(1))
	}
	if old := v.AndNotWord(2, ^uint64(0)); old != 0 || v.Count() != 3 {
		t.Fatalf("AndNotWord on the clear tail word: old %#x, count %d", old, v.Count())
	}
}
