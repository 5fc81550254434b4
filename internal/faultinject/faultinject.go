// Package faultinject is a seeded, deterministic fault-point registry for
// forcing the collector's rarely-taken paths on demand: packet overflow
// degrading to mark-and-dirty-card (Section 4.3), the Deferred-pool weak
// ordering protocol (Section 5.2), the get-before-return termination race and
// the three-step card-cleaning handshake (Section 5.3). A healthy run only
// hits these when the scheduler cooperates; a chaos plan makes them fire at a
// chosen, reproducible rate.
//
// The design follows the telemetry layer's nil-discipline: a nil *Plan hands
// out nil *Points, and every Point method no-ops on a nil receiver, so an
// instrumented hot path costs one pointer test and nothing else when
// injection is disabled. Decisions are functions of (seed, site name, hit
// index) only — no time, no global RNG — so a fault schedule is reproducible
// from the spec string and seed alone (hit indices are assigned by atomic
// increment, so under real concurrency the per-hit decisions are fixed even
// though which goroutine draws which index may vary).
//
// Spec grammar (comma-separated entries):
//
//	site=rate[:delay][@limit]
//
//	rate  := "on"           fire at every hit
//	       | N              fire at every Nth hit (deterministic in count)
//	       | A/B            fire a given hit with probability A/B (seeded hash)
//	delay := Go duration    how long Stall-style sites block when they fire
//	                        (default: a bare runtime.Gosched)
//	limit := positive int   stop firing after this many fires
//
// The pseudo-site "jitter" is the schedule perturbator: its rate and delay
// apply at *every* registered hook site's every hit, independently of the
// site's own trigger, so a plan of just "jitter=1/16" shakes goroutine
// interleavings at each hook without changing any outcome — useful for
// widening the state space -race explores.
package faultinject

import (
	"fmt"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"
)

// The registered fault sites. Each constant names one hook threaded through
// workpack, cardtable or live; Parse rejects names outside this set.
const (
	// PoolCAS amplifies contention on the sub-pool head CAS loops: a firing
	// hit is treated as a lost CAS and retried (workpack.Pool push/pop).
	PoolCAS = "pool.cas"
	// PoolExhaust forces GetInput/GetOutput/GetEmpty to report an exhausted
	// pool, driving the overflow and deferred-overflow degradations.
	PoolExhaust = "pool.exhaust"
	// PoolGetStall stalls inside the pool Get paths.
	PoolGetStall = "pool.getstall"
	// PoolPutStall stalls inside Pool.Put/PutDeferred.
	PoolPutStall = "pool.putstall"
	// PoolDeferStall stalls between packets while DrainDeferred recirculates
	// the Deferred sub-pool.
	PoolDeferStall = "pool.deferstall"
	// PoolLocalSpill forces a worker's local packet cache to spill to the
	// global pool even when the cache has room — a local-spill storm that
	// degrades the local tier back to global-CAS traffic.
	PoolLocalSpill = "pool.localspill"
	// PoolStealMiss forces the sibling-cache steal scan to report a miss, so
	// callers take the pool-exhausted degradation even while a sibling hoards
	// ready packets.
	PoolStealMiss = "pool.stealmiss"
	// PoolRefillStall stalls a worker's batch refill from the global Empty
	// sub-pool, widening the window where the local tier runs dry.
	PoolRefillStall = "pool.refillstall"
	// PoolHoard makes a tracer retain almost-full packets instead of
	// returning them: a firing hit on a non-empty Put withholds the packet
	// in a private hoard that neither the sub-pools nor the steal windows
	// can see. The hoarder eventually traces its hoard itself, so no work is
	// lost — but siblings idle, the work distribution skews toward the
	// hoarder and termination detection is delayed, which is exactly what
	// the per-tracer ledgers and gcstats balance must make visible.
	PoolHoard = "pool.hoard"
	// CardCleanStall stalls between word registrations inside the concurrent
	// register-and-clear pass, widening the dirty-during-clean race window.
	CardCleanStall = "card.cleanstall"
	// LiveTracerStall stalls a tracer between popping a grey object and
	// scanning it.
	LiveTracerStall = "live.tracerstall"
	// LiveFenceDelay delays a mutator's fence acknowledgement (the Section
	// 5.3 step-2 handshake) after it has published its allocation batch.
	LiveFenceDelay = "live.fencedelay"
	// LiveSafepointStall delays a mutator between noticing a stop-the-world
	// request and parking, stretching STW latency.
	LiveSafepointStall = "live.safepointstall"
	// LiveBgStarve starves a background tracer: a firing hit makes it sleep
	// its delay instead of tracing.
	LiveBgStarve = "live.bgstarve"
	// LiveAllocFail injects allocation failure: the mutator's free-list
	// refill reports heap exhaustion, exercising the degrade-and-trigger-
	// collection path.
	LiveAllocFail = "live.allocfail"
	// LiveWedge wedges the cycle: a firing hit makes a tracer refuse to
	// trace. With rate "on" tracing never progresses and the engine's
	// termination watchdog must fire. Exists to prove the watchdog works.
	LiveWedge = "live.wedge"
	// LiveOverload amplifies the allocation rate: a firing allocation-cache
	// refill additionally burns a whole extra batch of free objects as
	// instant garbage, so offered allocation outruns what tracing frees and
	// the degradation ladder (backpressure, emergency collection, admission
	// control) must carry the run. Rate "on" is ~2x sustained overload.
	LiveOverload = "live.overload"
	// LiveEmergencyStall stalls the driver inside an emergency STW
	// collection, right after the world has parked — stretching the one
	// pause the ladder is supposed to keep rare and bounded.
	LiveEmergencyStall = "live.emergencystall"
	// Jitter is the pseudo-site for the schedule perturbator (see package
	// doc). It is not a hook of its own.
	Jitter = "jitter"
)

// siteDocs maps every real site to a one-line description (Sites and the
// gcstress -chaos list output use it).
var siteDocs = map[string]string{
	PoolCAS:            "amplify sub-pool head CAS contention (forced retries)",
	PoolExhaust:        "force pool exhaustion: Get* returns nil, degradations fire",
	PoolGetStall:       "stall inside pool Get paths",
	PoolPutStall:       "stall inside pool Put paths",
	PoolDeferStall:     "stall between packets in DrainDeferred",
	PoolLocalSpill:     "force local packet caches to spill to the global pool",
	PoolStealMiss:      "force the sibling-cache steal scan to miss",
	PoolRefillStall:    "stall a local cache's batch refill from the global pool",
	PoolHoard:          "make a tracer withhold non-empty packets (skews load balance)",
	CardCleanStall:     "stall inside register-and-clear (dirty-during-clean races)",
	LiveTracerStall:    "stall a tracer between pop and scan",
	LiveFenceDelay:     "delay a mutator's fence acknowledgement",
	LiveSafepointStall: "delay a mutator reaching its safepoint",
	LiveBgStarve:       "starve a background tracer for its delay",
	LiveAllocFail:      "inject allocation failure (free-list refill fails)",
	LiveWedge:          "wedge tracing so the termination watchdog must fire",
	LiveOverload:       "amplify the allocation rate: a firing refill burns an extra batch",
	LiveEmergencyStall: "stall inside an emergency STW collection",
}

// Sites returns every real fault site name, sorted, with its description —
// the source of truth for -chaos list output and the docs.
func Sites() []string {
	names := make([]string, 0, len(siteDocs))
	for n := range siteDocs {
		names = append(names, n)
	}
	sort.Strings(names)
	for i, n := range names {
		names[i] = fmt.Sprintf("%-20s %s", n, siteDocs[n])
	}
	return names
}

// Point is one named fault site's trigger state. All trigger parameters are
// immutable after Parse; only the counters move, so a Point is safe for
// concurrent use from any number of goroutines. A nil Point is the disabled
// state: every method no-ops.
type Point struct {
	name     string
	explicit bool // named in the spec (vs. jitter-only)

	every int64  // fire when hit%every == 0 (0: use num/den)
	num   uint64 // fire with probability num/den (den 0: never)
	den   uint64
	limit int64         // stop after this many fires (0: unlimited)
	delay time.Duration // Stall/Sleep block length (0: Gosched)
	seed  uint64

	jNum   uint64 // jitter probability at every hit
	jDen   uint64
	jDelay time.Duration

	hits    atomic.Int64
	fires   atomic.Int64
	jitters atomic.Int64
}

// splitmix64 is the per-hit hash: cheap, stateless, well mixed.
func splitmix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// Fire records one hit of the site and reports whether the fault takes
// effect at this hit. Schedule jitter, if configured, is applied first —
// even when the site's own trigger does not fire.
func (p *Point) Fire() bool {
	if p == nil {
		return false
	}
	k := uint64(p.hits.Add(1))
	if p.jDen != 0 && splitmix64(p.seed^0xA5A5A5A5^k)%p.jDen < p.jNum {
		p.jitters.Add(1)
		p.blockFor(p.jDelay)
	}
	fire := false
	switch {
	case p.every > 0:
		fire = int64(k)%p.every == 0
	case p.den > 0:
		fire = splitmix64(p.seed+k)%p.den < p.num
	}
	if !fire {
		return false
	}
	if p.limit > 0 && p.fires.Add(1) > p.limit {
		return false
	}
	if p.limit == 0 {
		p.fires.Add(1)
	}
	return true
}

// Stall fires the point and, when it fires, blocks for the configured delay
// (a bare Gosched when no delay was given). This is the whole contract for
// stall-style sites.
func (p *Point) Stall() {
	if p.Fire() {
		p.blockFor(p.delay)
	}
}

// Sleep blocks for the point's configured delay without consulting the
// trigger — for sites that call Fire themselves and then need the block.
func (p *Point) Sleep() {
	if p == nil {
		return
	}
	p.blockFor(p.delay)
}

func (p *Point) blockFor(d time.Duration) {
	if d > 0 {
		time.Sleep(d)
	} else {
		runtime.Gosched()
	}
}

// Delay returns the point's configured delay (0 on nil or when unset).
func (p *Point) Delay() time.Duration {
	if p == nil {
		return 0
	}
	return p.delay
}

// Name returns the site name ("" on nil).
func (p *Point) Name() string {
	if p == nil {
		return ""
	}
	return p.name
}

// Hits returns how many times the site was reached.
func (p *Point) Hits() int64 {
	if p == nil {
		return 0
	}
	return p.hits.Load()
}

// Fires returns how many hits took the fault (clamped to the @limit).
func (p *Point) Fires() int64 {
	if p == nil {
		return 0
	}
	n := p.fires.Load()
	if p.limit > 0 && n > p.limit {
		return p.limit
	}
	return n
}

// Jitters returns how many hits drew a schedule perturbation.
func (p *Point) Jitters() int64 {
	if p == nil {
		return 0
	}
	return p.jitters.Load()
}

// PointStat is one site's counters, snapshotted.
type PointStat struct {
	Name     string
	Hits     int64
	Fires    int64
	Jitters  int64
	Explicit bool // named in the spec (vs. created only to carry jitter)
}

// Plan is one run's parsed fault configuration. A nil Plan is the disabled
// state. Plans are immutable after Parse and safe to share.
type Plan struct {
	spec   string
	seed   int64
	points map[string]*Point
}

// Parse builds a Plan from a spec string (see the package doc for the
// grammar) and a seed. An empty spec returns a nil Plan: injection disabled.
func Parse(spec string, seed int64) (*Plan, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	type trigger struct {
		every    int64
		num, den uint64
		limit    int64
		delay    time.Duration
	}
	parseTrigger := func(site, s string) (trigger, error) {
		var tr trigger
		if i := strings.IndexByte(s, '@'); i >= 0 {
			n, err := strconv.ParseInt(s[i+1:], 10, 64)
			if err != nil || n < 1 {
				return tr, fmt.Errorf("%s: bad limit %q", site, s[i+1:])
			}
			tr.limit, s = n, s[:i]
		}
		if i := strings.IndexByte(s, ':'); i >= 0 {
			d, err := time.ParseDuration(s[i+1:])
			if err != nil || d < 0 {
				return tr, fmt.Errorf("%s: bad delay %q", site, s[i+1:])
			}
			tr.delay, s = d, s[:i]
		}
		switch {
		case s == "on":
			tr.every = 1
		case strings.Contains(s, "/"):
			a, b, _ := strings.Cut(s, "/")
			num, err1 := strconv.ParseUint(a, 10, 32)
			den, err2 := strconv.ParseUint(b, 10, 32)
			if err1 != nil || err2 != nil || den == 0 || num > den {
				return tr, fmt.Errorf("%s: bad probability %q (want A/B with A<=B)", site, s)
			}
			tr.num, tr.den = num, den
		default:
			n, err := strconv.ParseInt(s, 10, 64)
			if err != nil || n < 1 {
				return tr, fmt.Errorf("%s: bad rate %q (want \"on\", N, or A/B)", site, s)
			}
			tr.every = n
		}
		return tr, nil
	}

	var jit trigger
	explicit := map[string]trigger{}
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		site, rest, ok := strings.Cut(entry, "=")
		site = strings.TrimSpace(site)
		if !ok {
			return nil, fmt.Errorf("faultinject: entry %q is not site=rate", entry)
		}
		if site != Jitter && siteDocs[site] == "" {
			return nil, fmt.Errorf("faultinject: unknown site %q (known: %s)",
				site, strings.Join(knownNames(), ", "))
		}
		if _, dup := explicit[site]; dup || (site == Jitter && jit.den+uint64(jit.every) != 0) {
			return nil, fmt.Errorf("faultinject: site %q configured twice", site)
		}
		tr, err := parseTrigger(site, strings.TrimSpace(rest))
		if err != nil {
			return nil, fmt.Errorf("faultinject: %v", err)
		}
		if site == Jitter {
			// "jitter=on" and "jitter=N" mean probability 1 and 1/N: the
			// perturbator is per-hit probabilistic by nature.
			if tr.every > 0 {
				tr.num, tr.den = 1, uint64(tr.every)
				tr.every = 0
			}
			jit = tr
			continue
		}
		explicit[site] = tr
	}

	pl := &Plan{spec: spec, seed: seed, points: make(map[string]*Point)}
	for site := range siteDocs {
		tr, isExplicit := explicit[site]
		if !isExplicit && jit.den == 0 {
			continue // neither faulted nor jittered: stay nil → zero cost
		}
		pl.points[site] = &Point{
			name:     site,
			explicit: isExplicit,
			every:    tr.every,
			num:      tr.num,
			den:      tr.den,
			limit:    tr.limit,
			delay:    tr.delay,
			seed:     splitmix64(uint64(seed) ^ hashName(site)),
			jNum:     jit.num,
			jDen:     jit.den,
			jDelay:   jit.delay,
		}
	}
	return pl, nil
}

// MustParse is Parse for tests and trusted specs; it panics on error.
func MustParse(spec string, seed int64) *Plan {
	pl, err := Parse(spec, seed)
	if err != nil {
		panic(err)
	}
	return pl
}

func knownNames() []string {
	names := make([]string, 0, len(siteDocs)+1)
	for n := range siteDocs {
		names = append(names, n)
	}
	names = append(names, Jitter)
	sort.Strings(names)
	return names
}

func hashName(s string) uint64 {
	h := uint64(1469598103934665603) // FNV-1a
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * 1099511628211
	}
	return h
}

// Point returns the named site's point, or nil when the plan is nil or the
// site is neither faulted nor jittered. The result is what call sites store
// and test against nil.
func (pl *Plan) Point(name string) *Point {
	if pl == nil {
		return nil
	}
	return pl.points[name]
}

// Seed returns the plan's seed (0 on nil).
func (pl *Plan) Seed() int64 {
	if pl == nil {
		return 0
	}
	return pl.seed
}

// String returns the spec the plan was parsed from ("" on nil).
func (pl *Plan) String() string {
	if pl == nil {
		return ""
	}
	return pl.spec
}

// Snapshot returns the counters of every point that was explicitly
// configured or actually reached, sorted by name. Nil-safe.
func (pl *Plan) Snapshot() []PointStat {
	if pl == nil {
		return nil
	}
	var out []PointStat
	for _, p := range pl.points {
		if !p.explicit && p.hits.Load() == 0 {
			continue
		}
		out = append(out, PointStat{
			Name:     p.name,
			Hits:     p.Hits(),
			Fires:    p.Fires(),
			Jitters:  p.Jitters(),
			Explicit: p.explicit,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
