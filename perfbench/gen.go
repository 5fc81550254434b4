package main

import (
	"math"

	"mcgc/internal/server"
)

// splitmix is a seeded splitmix64 stream: every input the benchmark
// generates — arrival gaps, the request mix, churn points — comes from one of
// these, so a seed pins the whole schedule independently of the Go version.
type splitmix struct{ state uint64 }

func (s *splitmix) next() uint64 {
	s.state += 0x9E3779B97F4A7C15
	x := s.state
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// float returns a uniform draw in [0, 1).
func (s *splitmix) float() float64 { return float64(s.next()>>11) / (1 << 53) }

// arrivals is a Poisson arrival process at a fixed absolute rate: due times
// are nanosecond offsets from the start of the open-loop phase and never
// depend on how fast earlier requests completed.
type arrivals struct {
	rng    splitmix
	meanNs float64
	t      float64
}

func newArrivals(seed uint64, ratePerSec float64) *arrivals {
	return &arrivals{rng: splitmix{state: seed ^ 0xA5A5_0F0F_3C3C_9696}, meanNs: 1e9 / ratePerSec}
}

// next returns the due time of the next request.
func (a *arrivals) next() int64 {
	a.t += -math.Log(1-a.rng.float()) * a.meanNs
	return int64(a.t)
}

// opKind is one request type of the KV mix.
type opKind uint8

const (
	opGet opKind = iota
	opPut
	opDelete
	opTouch
	numOpKinds
)

var opNames = [numOpKinds]string{"get", "put", "delete", "touch"}

// mix is the request mix as fractions; touches take the remainder.
type mix struct{ get, put, del float64 }

// requests is the seeded request stream: a Zipfian key and an op drawn from
// the mix for every request.
type requests struct {
	rng  splitmix
	zipf *server.Zipf
	mix  mix
}

func newRequests(seed uint64, keys int, theta float64, m mix) *requests {
	return &requests{
		rng:  splitmix{state: seed ^ 0x5EED_0000_0000_0001},
		zipf: server.NewZipf(seed*0x9E37+1, keys, theta),
		mix:  m,
	}
}

func (r *requests) next() (opKind, uint64) {
	key := r.zipf.Next()
	u := r.rng.float()
	switch {
	case u < r.mix.get:
		return opGet, key
	case u < r.mix.get+r.mix.put:
		return opPut, key
	case u < r.mix.get+r.mix.put+r.mix.del:
		return opDelete, key
	default:
		return opTouch, key
	}
}

// runOpen drives an open loop until the first due time at or past end. It
// calls poll (the safepoint poll) before every request and never sleeps:
// between due times it spins on the clock calling wait, because a sleeping
// client would both oversleep by a scheduler quantum and stall every
// safepoint until it woke. Every request is handed its due time, so the
// caller times it from when it was due, not from when it was sent: a stall
// in serve, poll or wait is charged to every request due while it lasted.
// spun reports that the client was idle when the request fell due, so
// start-due is the generator's own lateness rather than queueing behind
// earlier requests. It returns the number of requests issued.
func runOpen(clock func() int64, next func() int64, end int64, poll, wait func(), serve func(due, start int64, spun bool)) int64 {
	var n int64
	for {
		due := next()
		if due >= end {
			return n
		}
		poll()
		start := clock()
		spun := false
		for start < due {
			wait()
			start = clock()
			spun = true
		}
		serve(due, start, spun)
		n++
	}
}
