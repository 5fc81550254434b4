// Command gcstats reduces the telemetry files gcbench writes. Each view is
// a subcommand:
//
//	gcbench -exp fig1 -metrics m.jsonl -trace t.json
//	gcstats metrics -metrics m.jsonl           # pause percentiles, MMU, K trajectory per run
//	gcstats metrics -metrics m.jsonl -run wh=8 # only runs whose name contains "wh=8"
//	gcstats balance -metrics m.jsonl           # per-tracer load-balance view (Section 6.3)
//	gcstats balance -metrics m.jsonl -json     # same, one JSON object per run
//	gcstats latency -metrics serve.jsonl       # gcserve view: throughput, request-latency tail, pause correlation
//	gcstats degradation -metrics serve.jsonl   # overload view: ladder time-in-state, stalls, emergency cycles, sheds
//	gcstats pareto -distill cells.jsonl        # distilled-cost Pareto view: collector CPU overhead vs p99 per cell
//	gcstats check-hoard -metrics m.jsonl       # clean vs pool.hoard runs must separate
//	gcstats check -trace t.json                # validate the Chrome trace (CI smoke)
//
// The metrics report is computed entirely from the JSONL stream: pause
// percentiles from the gc.pause_ns gauge, MMU from the same samples plus
// the run.vtime_ns counter, and the tracing-rate trajectory from the
// gc.pacing.k gauge. The balance view reduces the trace.worker.* counters
// to skew, Gini, idle fraction, steal-hit rate and termination-latency
// percentiles; check-hoard gates CI on a hoard fault measurably moving
// those numbers. The pareto view reads the JSONL of distill.Record lines a
// -distill sweep appends, computes the Pareto frontier over (CPU overhead,
// p99) and prints the dominance relation; -json emits the annotated records
// for BENCH_distill.json. The check subcommand parses the trace_event file
// the way a viewer would and fails on structural problems (non-positive
// span durations, time going backwards within a track, missing or
// conflicting track names, tracer lanes shared between workers).
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"mcgc/internal/stats"
	"mcgc/internal/vtime"
)

// line is the union of the JSONL record types the metrics sink emits.
type line struct {
	Type string `json:"type"`
	Meta *struct {
		Scale string `json:"scale"`
		J     int    `json:"j"`
	} `json:"meta,omitempty"`
	// "run" is an object on run lines and a plain run-name string on metric
	// lines; kept raw here and decoded per record type.
	Run json.RawMessage `json:"run,omitempty"`

	Name    string    `json:"name"`
	Value   int64     `json:"value"`
	AtNs    []int64   `json:"at_ns"`
	V       []float64 `json:"v"`
	Bounds  []float64 `json:"bounds"`
	Counts  []int64   `json:"counts"`
	N       int64     `json:"n"`
	Sum     float64   `json:"sum"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	Dropped int64     `json:"dropped"`
}

// runData is everything gcstats keeps per run.
type runData struct {
	name      string
	collector string
	counters  map[string]int64
	gauges    map[string]struct {
		at []int64
		v  []float64
	}
	hists map[string]*stats.Histogram
}

var mmuWindows = []vtime.Duration{
	1 * vtime.Millisecond,
	10 * vtime.Millisecond,
	50 * vtime.Millisecond,
	200 * vtime.Millisecond,
}

// action runs one view once its flags are parsed.
type action func(stdout, stderr io.Writer) error

// subcommands maps each view to its flag binder. A binder registers the
// view's own flags (so "gcstats latency -h" lists only latency's flags) and
// returns the action run calls after parsing; the action writes the view to
// stdout and returns an error for a failed reduction.
var subcommands = map[string]struct {
	summary string
	bind    func(fs *flag.FlagSet) action
}{
	"metrics": {"pause percentiles, MMU and K trajectory per run", func(fs *flag.FlagSet) action {
		metrics := fs.String("metrics", "", "JSONL metrics file written by gcbench/gcstress/gcserve -metrics")
		filter := fs.String("run", "", "only report runs whose name contains this substring")
		return func(stdout, _ io.Writer) error {
			if *metrics == "" {
				return usageErr("gcstats metrics needs -metrics FILE")
			}
			return report(stdout, *metrics, *filter)
		}
	}},
	"balance":     {"per-tracer load-balance view (skew, Gini, idle, steals)", metricsView(balance)},
	"latency":     {"server-workload view: throughput, request-latency tail, pause correlation", metricsView(latency)},
	"degradation": {"overload view: ladder time-in-state, stalls, emergency cycles, sheds", metricsView(degradation)},
	"pareto": {"distilled-cost Pareto view: collector CPU overhead vs p99 per pacing configuration", func(fs *flag.FlagSet) action {
		in := fs.String("distill", "", "JSONL file of distill records appended by gcserve/gcstress -distill-json")
		asJSON := fs.Bool("json", false, "emit the frontier-annotated records as one JSON document (BENCH_distill.json format)")
		return func(stdout, stderr io.Writer) error {
			if *in == "" {
				return usageErr("gcstats pareto needs -distill FILE")
			}
			return pareto(stdout, stderr, *in, *asJSON)
		}
	}},
	"check": {"validate the Chrome trace file (CI smoke)", func(fs *flag.FlagSet) action {
		trace := fs.String("trace", "", "Chrome trace file written by -trace")
		return func(stdout, _ io.Writer) error {
			if *trace == "" {
				return usageErr("gcstats check needs -trace FILE")
			}
			if err := checkTrace(stdout, *trace); err != nil {
				return fmt.Errorf("trace check failed: %v", err)
			}
			return nil
		}
	}},
	"check-hoard": {"require pool.hoard runs to worsen balance vs clean runs", func(fs *flag.FlagSet) action {
		metrics := fs.String("metrics", "", "JSONL metrics file with clean and pool.hoard runs")
		return func(stdout, _ io.Writer) error {
			if *metrics == "" {
				return usageErr("gcstats check-hoard needs -metrics FILE")
			}
			if err := checkHoard(stdout, *metrics); err != nil {
				return fmt.Errorf("hoard check failed: %v", err)
			}
			return nil
		}
	}},
}

// metricsView binds the three flags every per-run metrics view shares and
// runs view on them.
func metricsView(view func(w io.Writer, path, filter string, jsonOut bool) error) func(fs *flag.FlagSet) action {
	return func(fs *flag.FlagSet) action {
		metrics := fs.String("metrics", "", "JSONL metrics file written by -metrics")
		filter := fs.String("run", "", "only report runs whose name contains this substring")
		asJSON := fs.Bool("json", false, "emit one JSON object per run instead of text")
		return func(stdout, _ io.Writer) error {
			if *metrics == "" {
				return usageErr(fs.Name() + " needs -metrics FILE")
			}
			return view(stdout, *metrics, *filter, *asJSON)
		}
	}
}

// usageError marks errors that should exit 2 (bad invocation) rather than 1
// (failed check or reduction).
type usageError string

func (e usageError) Error() string { return string(e) }

func usageErr(msg string) error { return usageError(msg) }

// subcommandOrder fixes the help listing (map iteration is random).
var subcommandOrder = []string{"metrics", "latency", "balance", "degradation", "pareto", "check", "check-hoard"}

func usage(w io.Writer) {
	fmt.Fprintln(w, "usage: gcstats <subcommand> [flags]")
	fmt.Fprintln(w, "subcommands:")
	for _, name := range subcommandOrder {
		fmt.Fprintf(w, "  %-12s %s\n", name, subcommands[name].summary)
	}
	fmt.Fprintln(w, "run \"gcstats <subcommand> -h\" for that view's flags")
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run dispatches one gcstats invocation and returns its exit code: 0 on
// success (and for help), 1 for a failed reduction or check, 2 for a bad
// invocation — an unknown subcommand, a flag error or a missing input.
func run(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	name, args := args[0], args[1:]
	if name == "help" {
		usage(stdout)
		return 0
	}
	sub, ok := subcommands[name]
	if !ok {
		fmt.Fprintf(stderr, "gcstats: unknown subcommand %q\n", name)
		usage(stderr)
		return 2
	}
	fs := flag.NewFlagSet("gcstats "+name, flag.ContinueOnError)
	fs.SetOutput(stderr)
	action := sub.bind(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2 // already reported, with the view's flags, by fs
	}
	if err := action(stdout, stderr); err != nil {
		fmt.Fprintf(stderr, "gcstats: %v\n", err)
		if _, isUsage := err.(usageError); isUsage {
			return 2
		}
		return 1
	}
	return 0
}

// readRuns parses the JSONL stream into per-run metric maps, preserving the
// file's (sorted) run order.
func readRuns(path string) ([]*runData, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	var runs []*runData
	byName := map[string]*runData{}
	current := func(run string) *runData {
		r := byName[run]
		if r == nil {
			r = &runData{
				name:     run,
				counters: map[string]int64{},
				gauges: map[string]struct {
					at []int64
					v  []float64
				}{},
				hists: map[string]*stats.Histogram{},
			}
			byName[run] = r
			runs = append(runs, r)
		}
		return r
	}

	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	for ln := 1; sc.Scan(); ln++ {
		raw := sc.Bytes()
		if len(raw) == 0 {
			continue
		}
		var l line
		if err := json.Unmarshal(raw, &l); err != nil {
			return nil, fmt.Errorf("%s:%d: %v", path, ln, err)
		}
		switch l.Type {
		case "suite":
			// informational only
		case "run":
			var meta struct {
				Name      string `json:"name"`
				Collector string `json:"collector"`
			}
			if err := json.Unmarshal(l.Run, &meta); err != nil {
				return nil, fmt.Errorf("%s:%d: run meta: %v", path, ln, err)
			}
			current(meta.Name).collector = meta.Collector
		case "counter", "gauge", "hist":
			var run string
			if err := json.Unmarshal(l.Run, &run); err != nil {
				return nil, fmt.Errorf("%s:%d: run key: %v", path, ln, err)
			}
			r := current(run)
			switch l.Type {
			case "counter":
				r.counters[l.Name] = l.Value
			case "gauge":
				r.gauges[l.Name] = struct {
					at []int64
					v  []float64
				}{l.AtNs, l.V}
			case "hist":
				r.hists[l.Name] = stats.RestoreHistogram(l.Bounds, l.Counts, l.Sum, l.Min, l.Max)
			}
		default:
			return nil, fmt.Errorf("%s:%d: unknown record type %q", path, ln, l.Type)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return runs, nil
}

// report prints the per-run reduction.
func report(w io.Writer, path, filter string) error {
	runs, err := readRuns(path)
	if err != nil {
		return err
	}
	reported := 0
	for _, r := range runs {
		if r.name == "host" || (filter != "" && !strings.Contains(r.name, filter)) {
			continue
		}
		reported++
		fmt.Fprintf(w, "== %s (%s)\n", r.name, r.collector)

		pauses := r.gauges["gc.pause_ns"]
		if len(pauses.v) == 0 {
			fmt.Fprintf(w, "   no collections recorded\n")
		} else {
			qs := stats.QuantilesF(pauses.v, 0.5, 0.95, 1.0)
			fmt.Fprintf(w, "   pauses: %d  p50 %.2f ms  p95 %.2f ms  max %.2f ms\n",
				len(pauses.v), qs[0]/1e6, qs[1]/1e6, qs[2]/1e6)
		}

		if total := vtime.Duration(r.counters["run.vtime_ns"]); total > 0 && len(pauses.v) > 0 {
			var iv []stats.Interval
			for i := range pauses.v {
				start := vtime.Time(pauses.at[i])
				iv = append(iv, stats.Interval{Start: start, End: start + vtime.Time(pauses.v[i])})
			}
			curve := stats.MMUCurve(iv, total, mmuWindows)
			parts := make([]string, len(mmuWindows))
			for i, w := range mmuWindows {
				parts[i] = fmt.Sprintf("%.0fms %.0f%%", w.Milliseconds(), 100*curve[i])
			}
			fmt.Fprintf(w, "   MMU: %s\n", strings.Join(parts, "  "))
		}

		if lh, st, sp, ss, cf := r.counters["pool.local_hits"], r.counters["pool.steals"],
			r.counters["pool.spills"], r.counters["arena.shard_steals"],
			r.counters["card.buffer_flushes"]; lh+st+sp+ss+cf > 0 {
			fmt.Fprintf(w, "   sharding: local hits %d  steals %d  spills %d  shard steals %d  card flushes %d\n",
				lh, st, sp, ss, cf)
		}

		if faults := faultCounters(r.counters); len(faults) > 0 {
			fmt.Fprintf(w, "   faults:")
			for _, f := range faults {
				fmt.Fprintf(w, "  %s %d/%d", f.site, f.fires, f.hits)
			}
			fmt.Fprintln(w)
			if r.counters["live.wedged"] > 0 {
				fmt.Fprintf(w, "   WEDGED: run aborted by the termination watchdog\n")
			}
		}

		if k := r.gauges["gc.pacing.k"]; len(k.v) > 0 {
			min, max := k.v[0], k.v[0]
			var sum float64
			for _, v := range k.v {
				if v < min {
					min = v
				}
				if v > max {
					max = v
				}
				sum += v
			}
			fmt.Fprintf(w, "   K: %d increments  first %.2f  last %.2f  mean %.2f  range [%.2f, %.2f]\n",
				len(k.v), k.v[0], k.v[len(k.v)-1], sum/float64(len(k.v)), min, max)
			if kicks := r.counters["gc.kickoffs"]; kicks > 0 {
				fmt.Fprintf(w, "   kickoffs: %d  paced increments: %d  trace words: mutator %d  bg %d  dedicated %d\n",
					kicks, r.counters["gc.increments"],
					r.counters["trace.mutator_words"], r.counters["trace.bg_words"], r.counters["trace.dedicated_words"])
			}
		}
		fmt.Fprintln(w)
	}
	if reported == 0 {
		return fmt.Errorf("no runs matched (file has %d runs)", len(runs))
	}
	return nil
}

// faultCounter is one fault site's fires/hits pair pulled back out of the
// fault.<site>.{fires,hits} counters a chaos run emits.
type faultCounter struct {
	site        string
	fires, hits int64
}

// faultCounters extracts and sorts the fault-injection counters of one run.
// Site names contain dots ("pool.exhaust"), so the metric kind is whatever
// follows the last dot.
func faultCounters(counters map[string]int64) []faultCounter {
	bySite := map[string]*faultCounter{}
	for name, v := range counters {
		rest, ok := strings.CutPrefix(name, "fault.")
		if !ok {
			continue
		}
		i := strings.LastIndexByte(rest, '.')
		if i < 0 {
			continue
		}
		site, kind := rest[:i], rest[i+1:]
		fc := bySite[site]
		if fc == nil {
			fc = &faultCounter{site: site}
			bySite[site] = fc
		}
		switch kind {
		case "hits":
			fc.hits = v
		case "fires":
			fc.fires = v
		}
	}
	out := make([]faultCounter, 0, len(bySite))
	for _, fc := range bySite {
		out = append(out, *fc)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].site < out[j].site })
	return out
}

// traceFile mirrors the subset of the trace_event schema -check inspects.
type traceFile struct {
	TraceEvents []struct {
		Ph   string         `json:"ph"`
		Pid  int64          `json:"pid"`
		Tid  int64          `json:"tid"`
		Name string         `json:"name"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Args map[string]any `json:"args,omitempty"`
	} `json:"traceEvents"`
}

// span is one complete ("X") event during -check validation.
type span struct {
	name     string
	ts, dur  float64
	fileLine int // index in traceEvents, for error messages
}

// checkTrace validates the trace the way a viewer would load it. Spans may
// appear in any file order (writers that record a span at completion emit an
// enclosing span after its children), so each track's spans are sorted by
// timestamp and then required to nest properly: two spans on one track must
// be disjoint or one must contain the other — partial overlap is the
// structural error a viewer renders as garbage. Per-tracer lanes get extra
// checks: a (pid,tid) pair must carry exactly one thread name, and the
// "worker" argument of tracer.cycle spans must be one-to-one with its track —
// two workers sharing a lane (or one worker smeared over two lanes) is how a
// track-assignment bug renders as interleaved garbage.
func checkTrace(w io.Writer, path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var tf traceFile
	if err := json.Unmarshal(raw, &tf); err != nil {
		return fmt.Errorf("not valid JSON: %v", err)
	}
	if len(tf.TraceEvents) == 0 {
		return fmt.Errorf("no trace events")
	}
	spanNames := map[string]bool{}
	named := map[[2]int64]string{}         // (pid,tid) -> thread_name metadata
	workerOfTrack := map[[2]int64]string{} // tracer.cycle "worker" arg per lane
	trackOfWorker := map[string][2]int64{}
	tracks := map[[2]int64][]span{}
	var spans, instants, counters int
	for i, e := range tf.TraceEvents {
		key := [2]int64{e.Pid, e.Tid}
		switch e.Ph {
		case "M":
			if e.Name == "thread_name" {
				name, _ := e.Args["name"].(string)
				if prev, ok := named[key]; ok && prev != name {
					return fmt.Errorf("event %d: track %v renamed from %q to %q", i, key, prev, name)
				}
				named[key] = name
			}
		case "X":
			spans++
			spanNames[e.Name] = true
			if e.Dur < 0 {
				return fmt.Errorf("event %d (%q): negative span duration %g", i, e.Name, e.Dur)
			}
			tracks[key] = append(tracks[key], span{name: e.Name, ts: e.Ts, dur: e.Dur, fileLine: i})
			if e.Name == "tracer.cycle" {
				w := fmt.Sprint(e.Args["worker"])
				if prev, ok := workerOfTrack[key]; ok && prev != w {
					return fmt.Errorf("event %d: track %v carries tracer.cycle spans for workers %s and %s",
						i, key, prev, w)
				}
				workerOfTrack[key] = w
				if prev, ok := trackOfWorker[w]; ok && prev != key {
					return fmt.Errorf("event %d: worker %s has tracer.cycle spans on tracks %v and %v",
						i, w, prev, key)
				}
				trackOfWorker[w] = key
			}
		case "i":
			instants++
		case "C":
			counters++
		default:
			return fmt.Errorf("event %d: unknown phase %q", i, e.Ph)
		}
	}
	for key, tr := range tracks {
		if _, ok := named[key]; !ok {
			return fmt.Errorf("track %v has events but no thread_name metadata", key)
		}
		if err := checkNesting(key, named[key], tr); err != nil {
			return err
		}
	}
	if len(spanNames) < 5 {
		names := make([]string, 0, len(spanNames))
		for n := range spanNames {
			names = append(names, n)
		}
		sort.Strings(names)
		return fmt.Errorf("only %d distinct span types (%s); want >= 5", len(spanNames), strings.Join(names, ", "))
	}
	fmt.Fprintf(w, "trace ok: %d spans (%d types), %d instants, %d counter samples, %d tracks\n",
		spans, len(spanNames), instants, counters, len(tracks))
	return nil
}

// checkNesting verifies that one track's spans form a forest: sorted by
// start (ties: longest first, so a parent precedes the children sharing its
// start), every span must begin at or after the enclosing span's start and
// end at or before its end.
func checkNesting(key [2]int64, trackName string, tr []span) error {
	sort.Slice(tr, func(i, j int) bool {
		if tr[i].ts != tr[j].ts {
			return tr[i].ts < tr[j].ts
		}
		return tr[i].dur > tr[j].dur
	})
	// Timestamps are nanoseconds divided down to float microseconds, so
	// boundaries that were exactly equal in the writer can differ by float
	// rounding; tolerate up to the 1ns quantum.
	const eps = 1e-3
	var stack []span
	for _, s := range tr {
		for len(stack) > 0 && stack[len(stack)-1].ts+stack[len(stack)-1].dur <= s.ts+eps {
			stack = stack[:len(stack)-1]
		}
		if len(stack) > 0 {
			if top := stack[len(stack)-1]; s.ts+s.dur > top.ts+top.dur+eps {
				return fmt.Errorf("track %v (%q): span %q [%g,%g] (event %d) partially overlaps %q [%g,%g] (event %d)",
					key, trackName, s.name, s.ts, s.ts+s.dur, s.fileLine,
					top.name, top.ts, top.ts+top.dur, top.fileLine)
			}
		}
		stack = append(stack, s)
	}
	return nil
}
