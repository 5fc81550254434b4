package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"strings"

	"mcgc/internal/stats"
	"mcgc/internal/vtime"
)

// latency reduces gcserve runs: request throughput and latency tail from the
// server.req_ns histogram, GC pauses and MMU from the collector's own
// telemetry, and the correlation between the two — per time window, the
// worst request latency against the worst pause, which is the paper's
// server-side claim (short pauses ⇒ short request tails) made measurable.
func latency(w io.Writer, path, filter string, jsonOut bool) error {
	runs, err := readRuns(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	reported := 0
	for _, r := range runs {
		if r.name == "host" || (filter != "" && !strings.Contains(r.name, filter)) {
			continue
		}
		hist := r.hists["server.req_ns"]
		if hist == nil {
			continue // not a gcserve run
		}
		reported++
		s := reduceLatency(r, hist)
		if jsonOut {
			if err := enc.Encode(s); err != nil {
				return err
			}
			continue
		}
		printLatency(w, s)
	}
	if reported == 0 {
		return fmt.Errorf("no gcserve runs (with server.req_ns histograms) matched (file has %d runs)", len(runs))
	}
	return nil
}

// latencySummary is the per-run reduction; the JSON shape is what
// BENCH_serve.json records.
type latencySummary struct {
	Run       string `json:"run"`
	Collector string `json:"collector"`

	Ops    int64 `json:"ops"`
	Issued int64 `json:"issued"`
	Failed int64 `json:"failed"`
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	Churns int64 `json:"churns"`

	RunNs         int64   `json:"run_ns"`
	ThroughputRPS float64 `json:"throughput_rps"`

	P50Ns  float64 `json:"p50_ns"`
	P99Ns  float64 `json:"p99_ns"`
	P999Ns float64 `json:"p999_ns"`
	MaxNs  float64 `json:"max_ns"`

	Cycles      int64   `json:"cycles"`
	LostObjects int64   `json:"lost_objects"`
	Pauses      int     `json:"pauses"`
	MaxPauseNs  float64 `json:"max_pause_ns"`

	// MMU maps window ("10ms") to minimum mutator utilization in [0,1].
	MMU map[string]float64 `json:"mmu"`

	// PauseLatencyR is the Pearson correlation between each window's worst
	// pause and worst request latency; Windows is how many windows both
	// series cover. NaN — a constant or too-short series — is reported as 0
	// with Windows 0 so the summary stays JSON-encodable.
	PauseLatencyR float64 `json:"pause_latency_r"`
	Windows       int     `json:"windows"`
	WindowNs      int64   `json:"window_ns"`
}

func reduceLatency(r *runData, hist *stats.Histogram) latencySummary {
	s := latencySummary{
		Run:         r.name,
		Collector:   r.collector,
		Ops:         r.counters["server.ops"],
		Issued:      r.counters["server.issued"],
		Failed:      r.counters["server.failed"],
		Hits:        r.counters["server.hits"],
		Misses:      r.counters["server.misses"],
		Churns:      r.counters["server.churn"],
		RunNs:       r.counters["run.vtime_ns"],
		P50Ns:       hist.Quantile(stats.P50),
		P99Ns:       hist.Quantile(stats.P99),
		P999Ns:      hist.Quantile(stats.P999),
		MaxNs:       hist.Max(),
		Cycles:      r.counters["live.cycles"],
		LostObjects: r.counters["live.lost_objects"],
		MMU:         map[string]float64{},
		WindowNs:    r.counters["server.window_ns"],
	}
	if s.RunNs > 0 {
		s.ThroughputRPS = float64(s.Ops) / (float64(s.RunNs) / 1e9)
	}

	pauses := r.gauges["gc.pause_ns"]
	s.Pauses = len(pauses.v)
	for _, v := range pauses.v {
		if v > s.MaxPauseNs {
			s.MaxPauseNs = v
		}
	}
	if total := vtime.Duration(s.RunNs); total > 0 && len(pauses.v) > 0 {
		var iv []stats.Interval
		for i := range pauses.v {
			start := vtime.Time(pauses.at[i])
			iv = append(iv, stats.Interval{Start: start, End: start + vtime.Time(pauses.v[i])})
		}
		curve := stats.MMUCurve(iv, total, mmuWindows)
		for i, w := range mmuWindows {
			s.MMU[fmt.Sprintf("%.0fms", w.Milliseconds())] = curve[i]
		}
	}

	s.PauseLatencyR, s.Windows = pauseLatencyCorrelation(r, s.WindowNs)
	if math.IsNaN(s.PauseLatencyR) {
		s.PauseLatencyR, s.Windows = 0, 0
	}
	return s
}

// pauseLatencyCorrelation builds two aligned per-window series — worst GC
// pause and worst request latency — and returns their Pearson correlation.
// The latency side comes from the server.req_window_max_ns gauge (sampled at
// each window's end); pauses are bucketed into the same windows by start
// time. Windows neither series touched stay 0 on both sides and are skipped.
func pauseLatencyCorrelation(r *runData, windowNs int64) (float64, int) {
	if windowNs <= 0 {
		return math.NaN(), 0
	}
	lat := r.gauges["server.req_window_max_ns"]
	pauses := r.gauges["gc.pause_ns"]
	n := 0
	idxOf := func(at int64) int { return int(at / windowNs) }
	for _, at := range lat.at {
		// Latency samples are stamped at the window's end; shift into it.
		if i := idxOf(at - 1); i >= n {
			n = i + 1
		}
	}
	for _, at := range pauses.at {
		if i := idxOf(at); i >= n {
			n = i + 1
		}
	}
	if n == 0 {
		return math.NaN(), 0
	}
	latW := make([]float64, n)
	pauseW := make([]float64, n)
	for i, at := range lat.at {
		if j := idxOf(at - 1); j >= 0 && j < n && lat.v[i] > latW[j] {
			latW[j] = lat.v[i]
		}
	}
	for i, at := range pauses.at {
		if j := idxOf(at); j >= 0 && j < n && pauses.v[i] > pauseW[j] {
			pauseW[j] = pauses.v[i]
		}
	}
	// Keep only windows where requests actually ran (burst off-phases and
	// the post-run tail carry no latency signal to correlate).
	var xs, ys []float64
	for i := range latW {
		if latW[i] > 0 {
			xs = append(xs, pauseW[i])
			ys = append(ys, latW[i])
		}
	}
	return pearson(xs, ys), len(xs)
}

// pearson returns the sample correlation coefficient, NaN when either series
// is constant or shorter than two points.
func pearson(xs, ys []float64) float64 {
	n := float64(len(xs))
	if len(xs) < 2 {
		return math.NaN()
	}
	var mx, my float64
	for i := range xs {
		mx += xs[i]
		my += ys[i]
	}
	mx /= n
	my /= n
	var sxy, sxx, syy float64
	for i := range xs {
		dx, dy := xs[i]-mx, ys[i]-my
		sxy += dx * dy
		sxx += dx * dx
		syy += dy * dy
	}
	if sxx == 0 || syy == 0 {
		return math.NaN()
	}
	return sxy / math.Sqrt(sxx*syy)
}

func printLatency(w io.Writer, s latencySummary) {
	fmt.Fprintf(w, "== %s (%s)\n", s.Run, s.Collector)
	hitRate := 0.0
	if s.Hits+s.Misses > 0 {
		hitRate = float64(s.Hits) / float64(s.Hits+s.Misses)
	}
	fmt.Fprintf(w, "   requests: %d completed / %d issued (%d failed)  hit rate %.1f%%  churns %d\n",
		s.Ops, s.Issued, s.Failed, 100*hitRate, s.Churns)
	fmt.Fprintf(w, "   throughput: %s req/s over %.2fs\n", fmtCount(s.ThroughputRPS), float64(s.RunNs)/1e9)
	fmt.Fprintf(w, "   latency: p50 %s  p99 %s  p999 %s  max %s\n",
		fmtNsStat(s.P50Ns), fmtNsStat(s.P99Ns), fmtNsStat(s.P999Ns), fmtNsStat(s.MaxNs))
	fmt.Fprintf(w, "   gc: %d cycles  %d pauses  max pause %s  lost objects %d\n",
		s.Cycles, s.Pauses, fmtNsStat(s.MaxPauseNs), s.LostObjects)
	if len(s.MMU) > 0 {
		parts := make([]string, len(mmuWindows))
		for i, w := range mmuWindows {
			k := fmt.Sprintf("%.0fms", w.Milliseconds())
			parts[i] = fmt.Sprintf("%s %.0f%%", k, 100*s.MMU[k])
		}
		fmt.Fprintf(w, "   MMU: %s\n", strings.Join(parts, "  "))
	}
	if s.Windows > 0 {
		fmt.Fprintf(w, "   pause↔latency: r=%+.2f over %d windows of %s\n",
			s.PauseLatencyR, s.Windows, fmtNsStat(float64(s.WindowNs)))
	}
	fmt.Fprintln(w)
}

// fmtNsStat renders a nanosecond quantity human-readably.
func fmtNsStat(ns float64) string {
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

// fmtCount renders a rate with k/M suffixes.
func fmtCount(v float64) string {
	switch {
	case v >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case v >= 1e3:
		return fmt.Sprintf("%.1fk", v/1e3)
	default:
		return fmt.Sprintf("%.0f", v)
	}
}
