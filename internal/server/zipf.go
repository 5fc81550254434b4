// Package server is the server-shaped workload for the live collector: a
// sharded in-memory KV/session store whose values are real objects in the
// live arena — allocated through the engine's mutator path (so they pay the
// allocation tax and publish in batches), mutated through the write barrier,
// rooted through per-shard RootSets and traced and collected for real — plus
// a closed-loop load generator whose clients are external mutators issuing
// GET/PUT/DELETE/session-touch requests with Zipfian key skew, request
// bursts and connection churn. Every request is timed; the recorder reduces
// the latencies to the server.req_ns histogram and server.* counters the
// telemetry pipeline serializes and gcstats latency reads back.
package server

import (
	"fmt"
	"math"
	"sort"
)

// Zipf is a seeded, deterministic Zipfian generator over keys [0, n):
// P(key = k) ∝ 1/(k+1)^theta, so key 0 is the hottest. Unlike math/rand's
// Zipf, the sequence is pinned by this implementation — a splitmix64 stream
// driving inverse-CDF lookup on a precomputed table — so a given
// (seed, n, theta) produces the same draws on every Go version, which is
// what the seed-stability golden test relies on.
type Zipf struct {
	rng prng
	cum []float64 // cum[k] = P(key <= k), ascending to 1
}

// NewZipf builds a generator for n keys with skew theta (0 = uniform;
// ~0.99 is the classic YCSB-style hot-key skew).
func NewZipf(seed uint64, n int, theta float64) *Zipf {
	if n < 1 {
		panic(fmt.Sprintf("server: zipf over %d keys", n))
	}
	if theta < 0 || math.IsNaN(theta) {
		panic(fmt.Sprintf("server: zipf theta %v", theta))
	}
	cum := make([]float64, n)
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += math.Pow(float64(k+1), -theta)
		cum[k] = sum
	}
	for k := range cum {
		cum[k] /= sum
	}
	return &Zipf{rng: prng{state: seed}, cum: cum}
}

// Next draws the next key.
func (z *Zipf) Next() uint64 {
	u := z.rng.float()
	k := sort.SearchFloat64s(z.cum, u)
	if k >= len(z.cum) {
		k = len(z.cum) - 1
	}
	return uint64(k)
}

// TopFraction returns the theoretical probability of the hottest key — what
// the distribution-shape test checks observed frequencies against.
func (z *Zipf) TopFraction() float64 { return z.cum[0] }

// prng is a splitmix64 stream: tiny, seedable, and stable across platforms
// and Go versions (the stdlib makes no such promise for math/rand).
type prng struct {
	state uint64
}

func (p *prng) next() uint64 {
	p.state += 0x9E3779B97F4A7C15
	x := p.state
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// float returns a uniform draw in [0, 1) with 53 bits of precision.
func (p *prng) float() float64 {
	return float64(p.next()>>11) / (1 << 53)
}

// intn returns a uniform draw in [0, n).
func (p *prng) intn(n int) int {
	if n <= 0 {
		panic(fmt.Sprintf("server: intn(%d)", n))
	}
	return int(p.next() % uint64(n))
}
