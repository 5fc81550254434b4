package main

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"time"
)

func TestBucketBoundsContainValue(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 100000; i++ {
		v := int64(math.Exp(r.Float64() * 40)) // 1 ns .. ~7 minutes
		lo, hi := bucketBounds(bucketOf(v))
		if v < lo || v >= hi {
			t.Fatalf("value %d outside its bucket [%d, %d)", v, lo, hi)
		}
		if v >= subCount && float64(hi-lo)/float64(lo) > 1.0/subCount {
			t.Fatalf("bucket [%d, %d) wider than 1/%d of its value", lo, hi, subCount)
		}
	}
}

// The recorder's percentiles must match an exact sort of the same samples
// to within the bucket resolution.
func TestHistQuantilesMatchExactSort(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	h := newHist()
	var vals []int64
	for i := 0; i < 200000; i++ {
		// A fast mode around 1 µs plus a 3% tail out to 50 ms: the shape of
		// an open loop with collector pauses.
		v := int64(800 + r.ExpFloat64()*400)
		if r.Float64() < 0.03 {
			v = int64(r.Float64() * 50e6)
		}
		vals = append(vals, v)
		h.observe(v)
	}
	sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
	for _, q := range []float64{0.01, 0.5, 0.9, 0.99, 0.999} {
		exact := float64(vals[int(math.Ceil(q*float64(len(vals))))-1])
		got := h.quantile(q)
		if math.Abs(got-exact) > exact/subCount+1 {
			t.Errorf("q%.3f: histogram %.1f, exact %.1f (tolerance %.1f)", q, got, exact, exact/subCount+1)
		}
	}
	if h.n != int64(len(vals)) || h.max != vals[len(vals)-1] {
		t.Errorf("count %d max %d, want %d %d", h.n, h.max, len(vals), vals[len(vals)-1])
	}
}

// A stall inside one request must be charged to every request that fell due
// while it lasted: each is timed from its due time, not from when the
// client got round to sending it. The clock is simulated, so the test is
// exact and independent of the host.
func TestOpenLoopChargesStallToEveryDueRequest(t *testing.T) {
	const (
		gap      = 10_000    // a request due every 10 µs
		service  = 1_000     // each takes 1 µs
		stallAt  = 500       // request index that stalls
		stall    = 5_000_000 // for 5 ms
		duration = 20_000_000
	)
	var now int64
	clock := func() int64 { return now }
	var due int64
	next := func() int64 { due += gap; return due }
	idle := func() { now += 100 }
	type rec struct{ due, lat int64 }
	var recs []rec
	var stallEnd int64
	n := runOpen(clock, next, duration, idle, idle, func(d, start int64, _ bool) {
		if start < d {
			t.Fatalf("request due %d released early at %d", d, start)
		}
		now += service
		if len(recs) == stallAt {
			now += stall
			stallEnd = now
		}
		recs = append(recs, rec{d, now - d})
	})
	if n != int64(len(recs)) || n != duration/gap-1 {
		t.Fatalf("issued %d requests, recorded %d, want %d", n, len(recs), duration/gap-1)
	}
	stallStart := recs[stallAt].due
	delayed := 0
	for _, r := range recs {
		if r.due > stallStart && r.due < stallEnd {
			delayed++
			if r.lat < stallEnd-r.due {
				t.Fatalf("request due %d inside the stall recorded %d ns, less than the %d ns it waited", r.due, r.lat, stallEnd-r.due)
			}
		}
	}
	if want := stall/gap - 1; delayed < want {
		t.Fatalf("%d requests fell due during the stall, want at least %d", delayed, want)
	}
	// After the backlog drains the loop is back on schedule.
	if last := recs[len(recs)-1]; last.lat > service+2*100 {
		t.Fatalf("last request still %d ns late", last.lat)
	}
}

func TestSeedReproducesArrivalsAndKeys(t *testing.T) {
	draw := func(seed uint64) ([]int64, []opKind, []uint64) {
		a := newArrivals(seed, 100_000)
		r := newRequests(seed, 5000, 0.99, mix{get: 0.5, put: 0.2, del: 0.1})
		var dues []int64
		var ops []opKind
		var keys []uint64
		for i := 0; i < 10000; i++ {
			dues = append(dues, a.next())
			op, k := r.next()
			ops = append(ops, op)
			keys = append(keys, k)
		}
		return dues, ops, keys
	}
	d1, o1, k1 := draw(7)
	d2, o2, k2 := draw(7)
	d3, _, k3 := draw(8)
	same, differs := true, false
	for i := range d1 {
		if d1[i] != d2[i] || o1[i] != o2[i] || k1[i] != k2[i] {
			same = false
		}
		if d1[i] != d3[i] || k1[i] != k3[i] {
			differs = true
		}
	}
	if !same {
		t.Fatal("one seed produced two different schedules")
	}
	if !differs {
		t.Fatal("two seeds produced the same schedule")
	}
	// The offered rate is absolute: 10000 arrivals at 100k/s span ~100 ms.
	if span := float64(d1[len(d1)-1]) / 1e6; span < 95 || span > 105 {
		t.Fatalf("10000 arrivals spanned %.1f ms, want ~100", span)
	}
	var counts [numOpKinds]int
	for _, op := range o1 {
		counts[op]++
	}
	for op, want := range [numOpKinds]float64{0.5, 0.2, 0.1, 0.2} {
		if got := float64(counts[op]) / float64(len(o1)); math.Abs(got-want) > 0.02 {
			t.Errorf("%s share %.3f, want %.2f", opNames[op], got, want)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"mcgc/internal/live.(*Engine).traceLoop":    "live",
		"mcgc/internal/heapsim.(*Heap).CarveCache":  "heapsim",
		"mcgc/internal/server.(*Store).Get":         "server",
		"runtime.mallocgc":                          "runtime",
		"internal/runtime/atomic.(*Uint32).Load":    "runtime",
		"main.runOpen":                              "bench",
		"mcgc/perfbench.runOpen":                    "bench",
		"sync.(*Mutex).Lock":                        "other",
		"mcgc/internal/vtime.Time.Add":              "other",
		"mcgc/internal/workpack.(*Pool).GetWork.fn": "workpack",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}

var sink uint64

// A real CPU profile of a loop in this package must decode and attribute
// most of its self time to the benchmark's own layer.
func TestProfileSharesDecodesRealProfile(t *testing.T) {
	stop, err := startProfile()
	if err != nil {
		t.Skip("cpu profiling unavailable:", err)
	}
	s := splitmix{state: 1}
	for start := time.Now(); time.Since(start) < 500*time.Millisecond; {
		for i := 0; i < 1e5; i++ {
			sink += s.next()
		}
	}
	shares, err := stop()
	if err != nil {
		t.Fatal(err)
	}
	var sum float64
	for _, l := range profLayers {
		sum += shares[l]
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("shares sum to %v: %v", sum, shares)
	}
	if shares["bench"] < 0.5 {
		t.Fatalf("bench share %.2f of a benchmark-only loop: %v", shares["bench"], shares)
	}
}
