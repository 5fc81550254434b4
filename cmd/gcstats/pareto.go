package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"mcgc/internal/distill"
)

// pareto reduces a JSONL file of distill.Record lines (one per sweep cell,
// appended by gcserve/gcstress -distill-json) to the Pareto view: the
// frontier over (collector CPU overhead, real p99), lower better on both
// axes, with each dominated cell naming a dominator. With asJSON the
// frontier-annotated records are emitted as one JSON document — the
// BENCH_distill.json format.
func pareto(w, stderr io.Writer, path string, asJSON bool) error {
	recs, err := distill.ReadRecords(path)
	if err != nil {
		return err
	}
	if len(recs) == 0 {
		return fmt.Errorf("%s: no distill records", path)
	}
	if agg := distill.MedianByName(recs); len(agg) < len(recs) {
		// To stderr: the -json document on stdout must stay parseable.
		fmt.Fprintf(stderr, "pareto: %d records, %d cells (repeated cells collapsed to their median-CPU rep)\n",
			len(recs), len(agg))
		recs = agg
	}
	distill.MarkFrontier(recs)
	sort.SliceStable(recs, func(i, j int) bool {
		return recs[i].CPUOverhead < recs[j].CPUOverhead
	})

	if asJSON {
		out := struct {
			Axes    [2]string        `json:"axes"`
			Records []distill.Record `json:"records"`
		}{
			Axes:    [2]string{"cpu_overhead", "real.p99_ns"},
			Records: recs,
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	}

	fmt.Fprintf(w, "%-24s %12s %10s %10s %10s  %s\n",
		"name", "cpu overhd", "p99", "gc share", "tput loss", "verdict")
	frontier := 0
	for _, r := range recs {
		verdict := "FRONTIER"
		switch {
		case r.BaselineContaminated:
			verdict = "contaminated baseline (excluded)"
		case r.DominatedBy != "":
			verdict = "dominated by " + r.DominatedBy
		default:
			frontier++
		}
		fmt.Fprintf(w, "%-24s %11.1f%% %10s %9.1f%% %9.1f%%  %s\n",
			r.Name,
			100*r.CPUOverhead,
			time.Duration(r.Real.P99Ns).Round(time.Microsecond),
			100*r.GCCPUShare, 100*r.ThroughputLoss, verdict)
	}
	fmt.Fprintf(w, "frontier: %d of %d cells\n", frontier, len(recs))
	return nil
}
