package main

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"

	"mcgc/internal/stats"
)

// degradation reduces live-engine runs to the overload-survival view: how
// much of the run each rung of the graceful-degradation ladder was active
// (ok / backpressure / emergency), how long mutators stalled in allocation
// backpressure, how often the engine escalated to an emergency collection,
// and — for gcserve runs — what the server's admission control shed or
// evicted. This is the view BENCH_overload.json records: the ladder's worth
// shows up as "same offered load, zero lost objects, bounded stalls" against
// a ladder-off run that wedges or fails allocations unboundedly.
func degradation(w io.Writer, path, filter string, jsonOut bool) error {
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
		if _, live := r.counters["live.cycles"]; !live {
			continue // not a live-engine run: no ladder to report
		}
		reported++
		s := reduceDegradation(r)
		if jsonOut {
			if err := enc.Encode(s); err != nil {
				return err
			}
			continue
		}
		printDegradation(w, s)
	}
	if reported == 0 {
		return fmt.Errorf("no live-engine runs matched (file has %d runs)", len(runs))
	}
	return nil
}

// degradationSummary is the per-run reduction; the JSON shape is what
// BENCH_overload.json records.
type degradationSummary struct {
	Run       string `json:"run"`
	Collector string `json:"collector"`

	LadderOn bool  `json:"ladder_on"`
	RunNs    int64 `json:"run_ns"`

	// Time-in-state fractions of the run, from the degradation tracker.
	OKFrac           float64 `json:"ok_frac"`
	BackpressureFrac float64 `json:"backpressure_frac"`
	EmergencyFrac    float64 `json:"emergency_frac"`
	Transitions      int     `json:"transitions"`

	// Rung 1: allocation backpressure.
	BackpressureWaits    int64   `json:"backpressure_waits"`
	BackpressureTimeouts int64   `json:"backpressure_timeouts"`
	BackpressureNs       int64   `json:"backpressure_ns"`
	StallP50Ns           float64 `json:"stall_p50_ns"`
	StallP99Ns           float64 `json:"stall_p99_ns"`
	StallMaxNs           float64 `json:"stall_max_ns"`

	// Rung 2: emergency collections.
	EmergencyCycles int64 `json:"emergency_cycles"`
	Cycles          int64 `json:"cycles"`

	// Rung 3: server admission control (zero for non-gcserve runs).
	Shed    int64 `json:"shed"`
	Evicted int64 `json:"evicted"`
	Retries int64 `json:"retries"`

	// Outcome: did the run survive the overload?
	AllocFailed int64 `json:"alloc_failed"`
	LostObjects int64 `json:"lost_objects"`
	Wedged      bool  `json:"wedged"`
}

func reduceDegradation(r *runData) degradationSummary {
	s := degradationSummary{
		Run:                  r.name,
		Collector:            r.collector,
		LadderOn:             r.counters["gc.ladder_enabled"] != 0,
		RunNs:                r.counters["run.vtime_ns"],
		BackpressureWaits:    r.counters["gc.backpressure_waits"],
		BackpressureTimeouts: r.counters["gc.backpressure_timeouts"],
		BackpressureNs:       r.counters["gc.backpressure_ns"],
		EmergencyCycles:      r.counters["gc.emergency_cycles"],
		Cycles:               r.counters["live.cycles"],
		Shed:                 r.counters["server.shed"],
		Evicted:              r.counters["server.evicted"],
		Retries:              r.counters["server.retries"],
		AllocFailed:          r.counters["live.alloc_failed"],
		LostObjects:          r.counters["live.lost_objects"],
		Wedged:               r.counters["live.wedged"] != 0,
	}
	if total := s.RunNs; total > 0 {
		s.OKFrac = float64(r.counters["gc.deg_ok_ns"]) / float64(total)
		s.BackpressureFrac = float64(r.counters["gc.deg_backpressure_ns"]) / float64(total)
		s.EmergencyFrac = float64(r.counters["gc.deg_emergency_ns"]) / float64(total)
	}
	// The state gauge carries one sample per transition plus the initial ok.
	if g := r.gauges["gc.degradation_state"]; len(g.v) > 1 {
		s.Transitions = len(g.v) - 1
	}
	if h := r.hists["gc.backpressure_stall_ns"]; h != nil && h.N() > 0 {
		s.StallP50Ns = h.Quantile(stats.P50)
		s.StallP99Ns = h.Quantile(stats.P99)
		s.StallMaxNs = h.Max()
	}
	return s
}

func printDegradation(w io.Writer, s degradationSummary) {
	ladder := "off"
	if s.LadderOn {
		ladder = "on"
	}
	fmt.Fprintf(w, "== %s (%s, ladder %s)\n", s.Run, s.Collector, ladder)
	fmt.Fprintf(w, "   state: ok %.1f%%  backpressure %.1f%%  emergency %.1f%%  (%d transitions over %.2fs)\n",
		100*s.OKFrac, 100*s.BackpressureFrac, 100*s.EmergencyFrac,
		s.Transitions, float64(s.RunNs)/1e9)
	if s.BackpressureWaits > 0 {
		fmt.Fprintf(w, "   backpressure: %d waits (%d timed out)  total %s  stall p50 %s  p99 %s  max %s\n",
			s.BackpressureWaits, s.BackpressureTimeouts, fmtNsStat(float64(s.BackpressureNs)),
			fmtNsStat(s.StallP50Ns), fmtNsStat(s.StallP99Ns), fmtNsStat(s.StallMaxNs))
	}
	fmt.Fprintf(w, "   collections: %d cycles, %d emergency\n", s.Cycles, s.EmergencyCycles)
	if s.Shed+s.Evicted+s.Retries > 0 {
		fmt.Fprintf(w, "   admission: shed %d  evicted %d  retries %d\n", s.Shed, s.Evicted, s.Retries)
	}
	verdict := "survived"
	if s.Wedged {
		verdict = "WEDGED"
	} else if s.LostObjects > 0 {
		verdict = fmt.Sprintf("LOST %d OBJECTS", s.LostObjects)
	}
	fmt.Fprintf(w, "   outcome: %s  alloc failures %d  lost objects %d\n\n",
		verdict, s.AllocFailed, s.LostObjects)
}
