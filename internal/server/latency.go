package server

import (
	"fmt"
	"time"

	"mcgc/internal/stats"
	"mcgc/internal/telemetry"
	"mcgc/internal/vtime"
)

// DefaultWindow is the bucketing interval for the per-window worst request
// latency — the series gcstats latency correlates against GC pauses.
const DefaultWindow = 20 * time.Millisecond

// DefaultLatencyBounds returns the shared request-latency histogram bounds:
// geometric from 1µs to beyond 2s with ratio 1.25 (~4 buckets per octave,
// coarse enough to stay one JSONL line, fine enough that p999 is a tight
// upper bound). Every per-client recorder uses the same bounds so their
// histograms merge exactly.
func DefaultLatencyBounds() []float64 {
	var bounds []float64
	for b := 1000.0; b < 2.5e9; b *= 1.25 {
		bounds = append(bounds, b)
	}
	return bounds
}

// recorder accumulates one client's request measurements. Owned by that
// client's goroutine for the whole run; merged by LoadGen.Wait afterwards —
// the unsynchronized telemetry Registry is never touched mid-run.
type recorder struct {
	hist *stats.Histogram

	issued, completed, failed int64
	hits, misses              int64
	puts, gets, dels, touches int64
	churns                    int64
	shed, evicted, retries    int64
}

func newRecorder(bounds []float64) *recorder {
	return &recorder{hist: stats.NewHistogram(bounds...)}
}

// Results is the load generator's merged end-of-run accounting.
type Results struct {
	Issued    int64 // requests started
	Completed int64 // requests finished successfully
	Failed    int64 // requests failed (allocation failure under heap pressure)

	Hits, Misses                 int64 // GET outcomes
	Puts, Gets, Deletes, Touches int64 // per-op counts
	Churns                       int64 // connection churn events (sessions dropped)

	// Admission-control outcomes. Shed requests are also counted in Failed —
	// the issued == completed + failed identity holds with or without
	// admission control; these break the failures down by cause.
	Shed    int64 // requests refused by admission control (ErrOverloaded)
	Evicted int64 // store entries evicted to recover from heap exhaustion
	Retries int64 // backoff-and-retry rounds shed PUTs went through

	// Hist is the merged request-latency histogram (nanoseconds).
	Hist *stats.Histogram
	// WindowNs buckets WindowMax: WindowMax[i] is the worst request latency
	// observed in window [i*WindowNs, (i+1)*WindowNs) of the run, 0 when the
	// window saw no request (burst-off phases, post-run tail).
	WindowNs  int64
	WindowMax []int64
}

// Flush copies the results into the telemetry registry as the server.*
// counters, the server.req_ns histogram and the server.req_window_max_ns
// gauge (one sample per non-empty window, stamped at the window's end).
// Driver-only, after the run — the Registry is unsynchronized.
func (r Results) Flush(reg *telemetry.Registry) {
	set := func(name string, v int64) { reg.Counter(name).Set(v) }
	set("server.ops", r.Completed)
	set("server.issued", r.Issued)
	set("server.failed", r.Failed)
	set("server.hits", r.Hits)
	set("server.misses", r.Misses)
	set("server.puts", r.Puts)
	set("server.gets", r.Gets)
	set("server.deletes", r.Deletes)
	set("server.touches", r.Touches)
	set("server.churn", r.Churns)
	set("server.shed", r.Shed)
	set("server.evicted", r.Evicted)
	set("server.retries", r.Retries)
	set("server.window_ns", r.WindowNs)
	reg.Histogram("server.req_ns", r.Hist.Bounds()...).Hist().Merge(r.Hist)
	g := reg.Gauge("server.req_window_max_ns")
	for i, v := range r.WindowMax {
		if v > 0 {
			g.Sample(vtime.Time(int64(i+1)*r.WindowNs), float64(v))
		}
	}
}

// String renders the one-line summary gcserve prints.
func (r Results) String() string {
	out := fmt.Sprintf(
		"requests: issued %d  completed %d  failed %d  (put %d  get %d hit/miss %d/%d  delete %d  touch %d  churn %d)",
		r.Issued, r.Completed, r.Failed, r.Puts, r.Gets, r.Hits, r.Misses, r.Deletes, r.Touches, r.Churns)
	if r.Shed+r.Evicted+r.Retries > 0 {
		out += fmt.Sprintf("\nadmission: shed %d  evicted %d  retries %d", r.Shed, r.Evicted, r.Retries)
	}
	if r.Hist.N() > 0 {
		out += fmt.Sprintf("\nlatency: p50 %s  p99 %s  p999 %s  max %s  mean %s",
			fmtNs(r.Hist.Quantile(stats.P50)), fmtNs(r.Hist.Quantile(stats.P99)),
			fmtNs(r.Hist.Quantile(stats.P999)), fmtNs(r.Hist.Max()), fmtNs(r.Hist.Mean()))
	}
	return out
}

// fmtNs renders nanoseconds human-readably.
func fmtNs(ns float64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.1fµs", ns/1e3)
	default:
		return fmt.Sprintf("%.0fns", ns)
	}
}
