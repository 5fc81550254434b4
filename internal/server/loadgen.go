package server

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"mcgc/internal/heapsim"
	"mcgc/internal/live"
)

// Client root slot conventions. Slot rootSession holds the head of the
// client's session-event chain (dropped on churn — the garbage source);
// slot rootPin holds the last GET hit (the reader-holds-reference root the
// collector must honor). LoadGen therefore needs RootsPerMutator >= 2.
const (
	rootSession = 0
	rootPin     = 1

	// sessionCap bounds the session-event chain; touches past the cap
	// truncate the tail so sessions don't grow without bound.
	sessionCap = 16

	// clientYieldEvery inserts a runtime.Gosched into the request loop so a
	// few hundred clients stay fair on small GOMAXPROCS hosts.
	clientYieldEvery = 64
)

// LoadConfig shapes the closed-loop load. Zero fields take defaults.
type LoadConfig struct {
	// Clients is the number of concurrent client goroutines; each drives one
	// of the engine's external mutators, so it must equal Config.ExtMutators.
	Clients int
	// Keys is the key-space size (default 4096) and Theta its Zipfian skew
	// (default 0.99, the classic hot-key profile).
	Keys  int
	Theta float64
	// Request mix: fractions of GETs, DELETEs and session touches; the
	// remainder are PUTs. Defaults 0.70 / 0.05 / 0.10 (so 15% PUTs).
	ReadFrac   float64
	DeleteFrac float64
	TouchFrac  float64
	// Burst duty cycle: when BurstPeriod > 0 and BurstDuty < 1, all clients
	// issue requests only during the first BurstDuty fraction of each period
	// (phase-locked to the run start, so load arrives in synchronized bursts)
	// and idle — still polling safepoints — for the rest.
	BurstPeriod time.Duration
	BurstDuty   float64
	// ChurnOps is the mean number of completed requests between connection
	// churn events, where a client drops every root it holds (its session
	// chain and pin become garbage) and reconnects fresh. 0 disables churn.
	ChurnOps int
	// Admission is the overload-shedding policy (admission.go). The zero
	// value keeps it disabled: requests fail only on heap exhaustion.
	Admission AdmissionConfig
	// Seed derives each client's private request stream.
	Seed uint64
	// Duration should match the engine run length; it sizes the
	// windowed-max-latency array. Window defaults to DefaultWindow.
	Duration time.Duration
	Window   time.Duration
}

func (c LoadConfig) withDefaults() LoadConfig {
	if c.Keys == 0 {
		c.Keys = 4096
	}
	if c.Theta == 0 {
		c.Theta = 0.99
	}
	if c.ReadFrac == 0 && c.DeleteFrac == 0 && c.TouchFrac == 0 {
		c.ReadFrac, c.DeleteFrac, c.TouchFrac = 0.70, 0.05, 0.10
	}
	if c.Window == 0 {
		c.Window = DefaultWindow
	}
	return c
}

// LoadGen runs Clients request loops against a Store, each on its own
// external mutator, and reduces their measurements to Results.
type LoadGen struct {
	cfg     LoadConfig
	eng     *live.Engine
	store   *Store
	adm     admission
	bounds  []float64
	recs    []*recorder
	windows []atomic.Int64
	start   time.Time
	wg      sync.WaitGroup
}

// NewLoadGen wires a generator to an engine and store. Call Start before
// eng.Run (the engine waits for every external mutator to Retire, which the
// clients only do once ShuttingDown flips) and Wait after it returns.
func NewLoadGen(eng *live.Engine, store *Store, cfg LoadConfig) *LoadGen {
	cfg = cfg.withDefaults()
	if cfg.Clients < 1 {
		panic(fmt.Sprintf("server: %d clients", cfg.Clients))
	}
	for _, f := range []float64{cfg.ReadFrac, cfg.DeleteFrac, cfg.TouchFrac, cfg.BurstDuty} {
		if f < 0 || f > 1 || math.IsNaN(f) {
			panic(fmt.Sprintf("server: fraction %v outside [0,1]", f))
		}
	}
	if s := cfg.ReadFrac + cfg.DeleteFrac + cfg.TouchFrac; s > 1 {
		panic(fmt.Sprintf("server: request mix sums to %v > 1", s))
	}
	nw := 4096
	if cfg.Duration > 0 {
		// Slack past the nominal run length: the final cycle's drain can
		// push requests beyond Duration.
		nw = int(cfg.Duration/cfg.Window) + 64
	}
	return &LoadGen{
		cfg:     cfg,
		eng:     eng,
		store:   store,
		adm:     admission{cfg: cfg.Admission.withDefaults(), eng: eng},
		bounds:  DefaultLatencyBounds(),
		recs:    make([]*recorder, cfg.Clients),
		windows: make([]atomic.Int64, nw),
	}
}

// Start launches the client goroutines. They begin issuing requests
// immediately; the engine's collector joins once eng.Run starts.
func (lg *LoadGen) Start() {
	lg.start = time.Now()
	lg.wg.Add(lg.cfg.Clients)
	for i := 0; i < lg.cfg.Clients; i++ {
		rec := newRecorder(lg.bounds)
		lg.recs[i] = rec
		c := &client{
			lg:   lg,
			m:    lg.eng.ExtMutator(i),
			rec:  rec,
			zipf: NewZipf(lg.cfg.Seed+uint64(i)*0x9E37, lg.cfg.Keys, lg.cfg.Theta),
			rng:  prng{state: lg.cfg.Seed ^ (uint64(i+1) * 0xA24B)},
		}
		go c.run()
	}
}

// Wait blocks until every client has retired and merges their recorders.
func (lg *LoadGen) Wait() Results {
	lg.wg.Wait()
	res := Results{
		Hist:     newRecorder(lg.bounds).hist,
		WindowNs: int64(lg.cfg.Window),
	}
	for _, r := range lg.recs {
		res.Issued += r.issued
		res.Completed += r.completed
		res.Failed += r.failed
		res.Hits += r.hits
		res.Misses += r.misses
		res.Puts += r.puts
		res.Gets += r.gets
		res.Deletes += r.dels
		res.Touches += r.touches
		res.Churns += r.churns
		res.Shed += r.shed
		res.Evicted += r.evicted
		res.Retries += r.retries
		res.Hist.Merge(r.hist)
	}
	// Trim the unused tail so WindowMax covers exactly the active run.
	last := -1
	for i := range lg.windows {
		if lg.windows[i].Load() > 0 {
			last = i
		}
	}
	res.WindowMax = make([]int64, last+1)
	for i := range res.WindowMax {
		res.WindowMax[i] = lg.windows[i].Load()
	}
	return res
}

// observe records one request's latency into the client's histogram and the
// shared per-window maxima.
func (lg *LoadGen) observe(rec *recorder, began time.Time, d time.Duration) {
	rec.hist.Observe(float64(d.Nanoseconds()))
	idx := int(began.Sub(lg.start) / lg.cfg.Window)
	if idx < 0 || idx >= len(lg.windows) {
		return
	}
	w := &lg.windows[idx]
	for {
		cur := w.Load()
		if int64(d) <= cur || w.CompareAndSwap(cur, int64(d)) {
			return
		}
	}
}

// client is one closed-loop connection: draw a key, issue the next request,
// measure it, repeat — churning its session away every so often.
type client struct {
	lg   *LoadGen
	m    *live.Mut
	rec  *recorder
	zipf *Zipf
	rng  prng
}

func (c *client) run() {
	defer c.lg.wg.Done()
	defer c.m.Retire()
	lg, cfg, rec := c.lg, c.lg.cfg, c.rec
	churnAt := c.nextChurn()
	for iters := 0; !lg.eng.ShuttingDown(); iters++ {
		if iters%clientYieldEvery == 0 {
			runtime.Gosched()
		}
		// Burst gate: outside the duty window the client idles but keeps
		// honoring safepoints — an idle connection must not stall STW.
		if cfg.BurstPeriod > 0 && cfg.BurstDuty < 1 {
			phase := time.Since(lg.start) % cfg.BurstPeriod
			if phase >= time.Duration(cfg.BurstDuty*float64(cfg.BurstPeriod)) {
				c.m.Poll()
				time.Sleep(100 * time.Microsecond)
				continue
			}
		}
		began := time.Now()
		rec.issued++
		if c.request() {
			rec.completed++
		} else {
			rec.failed++
		}
		lg.observe(rec, began, time.Since(began))
		if cfg.ChurnOps > 0 {
			if churnAt--; churnAt <= 0 {
				c.churn()
				churnAt = c.nextChurn()
			}
		}
	}
}

// request issues one operation, chosen by the configured mix. The timed
// region deliberately includes the safepoint poll, any allocation-tax or
// refill stall, and the admission decision with its retry backoff — that
// interference is exactly what the latency histogram is for. Reports false on
// allocation failure (heap exhaustion) or when admission control sheds the
// request, so issued == completed + failed holds either way.
func (c *client) request() bool {
	c.m.Poll()
	key := c.zipf.Next()
	cfg, rec := c.lg.cfg, c.rec
	u := c.rng.float()
	switch {
	case u < cfg.ReadFrac:
		// Reads are never shed: they allocate nothing.
		rec.gets++
		if c.lg.store.Get(c.m, key, rootPin) {
			rec.hits++
		} else {
			rec.misses++
		}
		return true
	case u < cfg.ReadFrac+cfg.DeleteFrac:
		rec.dels++
		c.lg.store.Delete(c.m, key)
		return true
	case u < cfg.ReadFrac+cfg.DeleteFrac+cfg.TouchFrac:
		rec.touches++
		// Touches shed first (at twice the put watermark) and never retry:
		// session upkeep is the cheapest traffic to refuse under pressure.
		if err := c.lg.adm.admit("touch", 2*c.lg.adm.cfg.ShedWatermark); err != nil {
			rec.shed++
			return false
		}
		return c.touch()
	default:
		rec.puts++
		return c.put(key)
	}
}

// put runs one PUT through the admission ladder: shed when headroom is below
// the watermark, retrying with jittered backoff while the collector catches
// up; on true heap exhaustion — the allocation failed even after the engine's
// own backpressure — evict the oldest store entries, drop this client's own
// pin, and try once more before giving up.
func (c *client) put(key uint64) bool {
	adm := &c.lg.adm
	evicted := false
	for attempt := 0; ; attempt++ {
		if err := adm.admit("put", adm.cfg.ShedWatermark); err != nil {
			if attempt >= adm.cfg.MaxRetries {
				c.rec.shed++
				return false
			}
			c.backoff(attempt)
			continue
		}
		if c.lg.store.Put(c.m, key) {
			return true
		}
		if adm.cfg.Enabled && !evicted {
			evicted = true
			c.rec.evicted += int64(c.lg.store.EvictOldest(c.m, adm.cfg.EvictBatch))
			c.m.SetRoot(rootPin, heapsim.Nil)
			continue
		}
		return false
	}
}

// backoff sleeps a jittered exponential delay between shed-put retries,
// polling the safepoint on both sides so a retrying client never stalls a
// stop-the-world — backpressure that blocks the collector would feed the very
// overload it is meant to relieve.
func (c *client) backoff(attempt int) {
	c.rec.retries++
	base := c.lg.adm.cfg.RetryBackoff << uint(attempt)
	d := base/2 + time.Duration(c.rng.intn(int(base/2)+1))
	c.m.Poll()
	time.Sleep(d)
	c.m.Poll()
}

// touch prepends a freshly allocated event object to the client's session
// chain and truncates the chain at sessionCap so it stays bounded. The chain
// is rooted only by the client's rootSession slot — churn makes all of it
// garbage at once.
func (c *client) touch() bool {
	e, ok := c.m.Alloc()
	if !ok {
		return false
	}
	c.m.Store(e, slotNext, c.m.Root(rootSession))
	c.m.SetRoot(rootSession, e)
	n, p := 1, e
	for next := c.m.Load(p, slotNext); next != heapsim.Nil; next = c.m.Load(p, slotNext) {
		if n++; n > sessionCap {
			c.m.Store(p, slotNext, heapsim.Nil)
			break
		}
		p = next
	}
	return true
}

// churn simulates the connection dropping: every root the client holds is
// cleared, so its session chain and pinned entry are garbage for the next
// cycle, then the client "reconnects" after a short pause.
func (c *client) churn() {
	for i := 0; i < c.m.NumRoots(); i++ {
		c.m.SetRoot(i, heapsim.Nil)
	}
	c.rec.churns++
	c.m.Poll()
	time.Sleep(200 * time.Microsecond)
}

// nextChurn jitters the per-connection lifetime around ChurnOps so churn
// events spread out instead of arriving in lockstep.
func (c *client) nextChurn() int {
	if c.lg.cfg.ChurnOps <= 0 {
		return 0
	}
	return c.lg.cfg.ChurnOps/2 + 1 + c.rng.intn(c.lg.cfg.ChurnOps)
}
