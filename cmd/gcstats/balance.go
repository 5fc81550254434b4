package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"mcgc/internal/stats"
)

// The -balance view reduces the trace.worker.* counter families and the
// trace.term_latency_ns gauge to the Section 6.3 load-balancing quantities:
// per-worker work flow, the skew of traced words across parallel tracers
// (max/mean and Gini), the idle fraction of the concurrent-mark phase, the
// steal-hit rate, and termination-detection latency percentiles.

// workerRow is one worker's end-of-run ledger pulled back out of the
// trace.worker.<key>.* counters a live run emits.
type workerRow struct {
	Key           string `json:"key"`
	Kind          string `json:"kind"` // "dedicated", "bg" or "tax", from the key prefix
	Words         int64  `json:"words"`
	Objects       int64  `json:"objects,omitempty"`
	AcqGlobal     int64  `json:"acq_global,omitempty"`
	AcqLocal      int64  `json:"acq_local,omitempty"`
	AcqSteal      int64  `json:"acq_steal,omitempty"`
	Produced      int64  `json:"produced,omitempty"`
	StealAttempts int64  `json:"steal_attempts,omitempty"`
	StealHits     int64  `json:"steal_hits,omitempty"`
	IdleNs        int64  `json:"idle_ns,omitempty"`
	PoolNs        int64  `json:"pool_ns,omitempty"`
	Hoarded       int64  `json:"hoarded,omitempty"`
}

// kindOfKey maps a worker key to its kind: d<i> dedicated, b<i> background,
// m<i> mutator allocation tax.
func kindOfKey(key string) string {
	switch {
	case strings.HasPrefix(key, "b"):
		return "bg"
	case strings.HasPrefix(key, "m"):
		return "tax"
	default:
		return "dedicated"
	}
}

// workerRows extracts and sorts the per-worker counters of one run. Keys are
// sorted dedicated first, then background, then tax, numerically within each.
func workerRows(counters map[string]int64) []workerRow {
	byKey := map[string]*workerRow{}
	for name, v := range counters {
		rest, ok := strings.CutPrefix(name, "trace.worker.")
		if !ok {
			continue
		}
		i := strings.IndexByte(rest, '.')
		if i < 0 {
			continue
		}
		key, metric := rest[:i], rest[i+1:]
		w := byKey[key]
		if w == nil {
			w = &workerRow{Key: key, Kind: kindOfKey(key)}
			byKey[key] = w
		}
		switch metric {
		case "words":
			w.Words = v
		case "objects":
			w.Objects = v
		case "acq_global":
			w.AcqGlobal = v
		case "acq_local":
			w.AcqLocal = v
		case "acq_steal":
			w.AcqSteal = v
		case "produced":
			w.Produced = v
		case "steal_attempts":
			w.StealAttempts = v
		case "steal_hits":
			w.StealHits = v
		case "idle_ns":
			w.IdleNs = v
		case "pool_ns":
			w.PoolNs = v
		case "hoarded":
			w.Hoarded = v
		}
	}
	rank := map[string]int{"dedicated": 0, "bg": 1, "tax": 2}
	out := make([]workerRow, 0, len(byKey))
	for _, w := range byKey {
		out = append(out, *w)
	}
	sort.Slice(out, func(i, j int) bool {
		if ri, rj := rank[out[i].Kind], rank[out[j].Kind]; ri != rj {
			return ri < rj
		}
		// Numeric order within a kind: shorter keys first ("d2" < "d10").
		if len(out[i].Key) != len(out[j].Key) {
			return len(out[i].Key) < len(out[j].Key)
		}
		return out[i].Key < out[j].Key
	})
	return out
}

// balanceReport is one run's reduction; -balance renders it as text, -json as
// a machine-readable record (the balance-bench sweep collects those).
type balanceReport struct {
	Run       string      `json:"run"`
	Collector string      `json:"collector,omitempty"`
	Tracers   int         `json:"tracers"` // parallel (non-tax) workers
	Skew      float64     `json:"skew_max_mean"`
	Gini      float64     `json:"gini"`
	IdleFrac  float64     `json:"idle_fraction"`
	StealHit  float64     `json:"steal_hit_rate"`
	TermN     int         `json:"term_samples"`
	TermP50Ns float64     `json:"term_p50_ns,omitempty"`
	TermP95Ns float64     `json:"term_p95_ns,omitempty"`
	TermMaxNs float64     `json:"term_max_ns,omitempty"`
	Hoarded   int64       `json:"hoarded,omitempty"`
	Workers   []workerRow `json:"workers"`
}

// reduceBalance computes one run's balance quantities. Mutator-tax workers
// appear in the per-worker rows but are excluded from the skew, Gini and idle
// aggregates: they trace on the allocation clock, not in the parallel race.
func reduceBalance(r *runData) (balanceReport, error) {
	rows := workerRows(r.counters)
	if len(rows) == 0 {
		return balanceReport{}, fmt.Errorf("run %q has no trace.worker.* counters (accounting off?)", r.name)
	}
	rep := balanceReport{Run: r.name, Collector: r.collector, Workers: rows}

	var words []float64
	var idle, hits, attempts int64
	for _, w := range rows {
		rep.Hoarded += w.Hoarded
		if w.Kind == "tax" {
			continue
		}
		rep.Tracers++
		words = append(words, float64(w.Words))
		idle += w.IdleNs
		hits += w.StealHits
		attempts += w.StealAttempts
	}
	var sum, max float64
	for _, v := range words {
		sum += v
		if v > max {
			max = v
		}
	}
	if sum > 0 {
		rep.Skew = max / (sum / float64(len(words)))
		rep.Gini = stats.Gini(words)
	}
	// Idle fraction: summed tracer idle over the total tracer-time of the
	// markingActive windows (concurrent mark plus the STW final and oracle,
	// the full span during which tracers accrue idle). Older files without
	// that counter fall back to the bare mark time.
	activeNs := r.counters["live.tracer_active_ns_total"]
	if activeNs == 0 {
		activeNs = r.counters["live.mark_ns_total"]
	}
	if activeNs > 0 && rep.Tracers > 0 {
		rep.IdleFrac = float64(idle) / (float64(activeNs) * float64(rep.Tracers))
	}
	if attempts > 0 {
		rep.StealHit = float64(hits) / float64(attempts)
	}
	if lat := r.gauges["trace.term_latency_ns"]; len(lat.v) > 0 {
		qs := stats.QuantilesF(lat.v, 0.5, 0.95, 1.0)
		rep.TermN = len(lat.v)
		rep.TermP50Ns, rep.TermP95Ns, rep.TermMaxNs = qs[0], qs[1], qs[2]
	}
	return rep, nil
}

// balance prints the per-run balance reduction; with jsonOut it emits one
// JSON object per run instead (JSONL, so sweeps can cat and append).
func balance(w io.Writer, path, filter string, jsonOut bool) error {
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
		rep, err := reduceBalance(r)
		if err != nil {
			return err
		}
		reported++
		if jsonOut {
			if err := enc.Encode(rep); err != nil {
				return err
			}
			continue
		}
		fmt.Fprintf(w, "== %s (%s)\n", rep.Run, rep.Collector)
		fmt.Fprintf(w, "   balance: %d tracers  skew max/mean %.3f  gini %.4f  idle %.1f%%  steal hits %.1f%%\n",
			rep.Tracers, rep.Skew, rep.Gini, 100*rep.IdleFrac, 100*rep.StealHit)
		if rep.TermN > 0 {
			fmt.Fprintf(w, "   termination: %d samples  p50 %.1fµs  p95 %.1fµs  max %.1fµs\n",
				rep.TermN, rep.TermP50Ns/1e3, rep.TermP95Ns/1e3, rep.TermMaxNs/1e3)
		} else {
			fmt.Fprintf(w, "   termination: no latency samples (detection was immediate every cycle)\n")
		}
		if rep.Hoarded > 0 {
			fmt.Fprintf(w, "   HOARDING: %d packets withheld by a pool.hoard fault\n", rep.Hoarded)
		}
		tbl := stats.NewTable("worker", "kind", "words", "share", "acq g/l/s", "produced", "steals", "idle ms", "pool ms")
		var total float64
		for _, w := range rep.Workers {
			if w.Kind != "tax" {
				total += float64(w.Words)
			}
		}
		for _, w := range rep.Workers {
			share := "-"
			if w.Kind != "tax" && total > 0 {
				share = fmt.Sprintf("%.1f%%", 100*float64(w.Words)/total)
			}
			steals := fmt.Sprintf("%d/%d", w.StealHits, w.StealAttempts)
			tbl.AddRow(w.Key, w.Kind, fmt.Sprint(w.Words), share,
				fmt.Sprintf("%d/%d/%d", w.AcqGlobal, w.AcqLocal, w.AcqSteal),
				fmt.Sprint(w.Produced), steals,
				fmt.Sprintf("%.1f", float64(w.IdleNs)/1e6),
				fmt.Sprintf("%.1f", float64(w.PoolNs)/1e6))
		}
		fmt.Fprint(w, indent(tbl.String(), "   "))
		fmt.Fprintln(w)
	}
	if reported == 0 {
		return fmt.Errorf("no runs matched (file has %d runs)", len(runs))
	}
	return nil
}

func indent(s, pre string) string {
	lines := strings.Split(strings.TrimRight(s, "\n"), "\n")
	for i, l := range lines {
		lines[i] = pre + l
	}
	return strings.Join(lines, "\n") + "\n"
}

// checkHoard is the balance-smoke gate: the metrics file must contain both
// clean runs and runs where the pool.hoard fault fired, and the hoard runs
// must show strictly worse imbalance (mean words-Gini) and strictly worse
// mean termination-detection latency. This is what "the fault demonstrably
// moves the balance numbers" means in CI.
func checkHoard(w io.Writer, path string) error {
	runs, err := readRuns(path)
	if err != nil {
		return err
	}
	var cleanGini, hoardGini, cleanTerm, hoardTerm []float64
	var hoarded int64
	for _, r := range runs {
		if r.name == "host" {
			continue
		}
		rep, err := reduceBalance(r)
		if err != nil {
			return err
		}
		var term float64
		if lat := r.gauges["trace.term_latency_ns"]; len(lat.v) > 0 {
			for _, v := range lat.v {
				term += v
			}
			term /= float64(len(lat.v))
		}
		if r.counters["fault.pool.hoard.fires"] > 0 {
			if rep.Hoarded == 0 {
				return fmt.Errorf("run %q: pool.hoard fired but no trace.worker.*.hoarded counter", r.name)
			}
			hoarded += rep.Hoarded
			hoardGini = append(hoardGini, rep.Gini)
			hoardTerm = append(hoardTerm, term)
		} else {
			cleanGini = append(cleanGini, rep.Gini)
			cleanTerm = append(cleanTerm, term)
		}
	}
	if len(cleanGini) == 0 || len(hoardGini) == 0 {
		return fmt.Errorf("need both clean and pool.hoard runs in one file (got %d clean, %d hoard)",
			len(cleanGini), len(hoardGini))
	}
	mean := func(xs []float64) float64 {
		var s float64
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	cg, hg, ct, ht := mean(cleanGini), mean(hoardGini), mean(cleanTerm), mean(hoardTerm)
	fmt.Fprintf(w, "hoard check: %d clean + %d hoard runs (%d packets hoarded)\n",
		len(cleanGini), len(hoardGini), hoarded)
	fmt.Fprintf(w, "   words gini:   clean %.4f  hoard %.4f\n", cg, hg)
	fmt.Fprintf(w, "   term latency: clean %.1fµs  hoard %.1fµs (means)\n", ct/1e3, ht/1e3)
	if hg <= cg {
		return fmt.Errorf("pool.hoard did not worsen words-Gini (clean %.4f, hoard %.4f)", cg, hg)
	}
	if ht <= ct {
		return fmt.Errorf("pool.hoard did not worsen termination latency (clean %.1fµs, hoard %.1fµs)", ct/1e3, ht/1e3)
	}
	fmt.Fprintln(w, "   ok: hoarding measurably worsens both imbalance and termination latency")
	return nil
}
