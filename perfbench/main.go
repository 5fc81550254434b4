// Command perfbench is the repository's benchmark: it drives the live
// collector through the KV server (kv_churn, kv_bigheap) and the paper's
// collector through the simulator (sim_jbb), generating all load itself from
// one process and timing only calls into public functions — Store.Get/Put/
// Delete, Mut.Poll/Alloc, Engine.Run through its Report, and VM.RunFor.
//
// One run measures one workload:
//
//	perfbench --workload kv_churn --seed 1 --seconds 20 --trace 0
//
// It prints every metric by name with its unit, the run context and each
// phase's attempted and failed requests, and as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics
// are the end-to-end ones; --trace 1 makes a separate traced run (CPU
// profile, Poll/Alloc brackets, the engine's telemetry sinks) whose metrics
// are the per-layer ones. It exits 1 when a correctness check fails.
// README.md in this directory explains the workloads and metrics.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"sort"
	"syscall"
	"time"
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; every workload reports
// all of them (see README.md for what each means on sim_jbb).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_rps", "1/s"},
	{"req_p50_us", "us"},
	{"req_p99_us", "us"},
	{"pause_mean_ms", "ms"},
	{"rss_peak_mb", "MB"},
}

// perLayer are the traced run's metrics. A layer a workload does not
// exercise reports 0.
var perLayer = []metricDef{
	{"server.get_p50_us", "us"}, {"server.get_p99_us", "us"},
	{"server.put_p50_us", "us"}, {"server.put_p99_us", "us"},
	{"server.delete_p50_us", "us"}, {"server.hit_share", "ratio"},
	{"live.alloc_p50_us", "us"}, {"live.alloc_p99_us", "us"},
	{"live.poll_wait_ms", "ms"}, {"live.poll_parks", "count"},
	{"gc.cycles_per_s", "1/s"}, {"gc.stw_share", "ratio"},
	{"gc.pause_max_ms", "ms"}, {"gc.mark_ns_per_object", "ns"},
	{"gc.sweep_ns_per_freed", "ns"}, {"gc.alloc_objects_per_s", "1/s"},
	{"gc.floating_share", "ratio"}, {"gc.rescans_per_scan", "ratio"},
	{"gc.cards_cleaned_per_cycle", "count"},
	{"gc.term_latency_p50_us", "us"}, {"gc.tracer_idle_share", "ratio"},
	{"gc.stw_final_ms_mean", "ms"}, {"gc.mark_concurrent_ms_mean", "ms"},
	{"gc.sweep_ms_mean", "ms"},
	{"pacing.tax_words_share", "ratio"}, {"pacing.bg_words_share", "ratio"},
	{"pacing.kickoffs", "count"},
	{"workpack.cas_retries", "count"}, {"workpack.local_hit_share", "ratio"},
	{"workpack.steals", "count"}, {"workpack.max_in_use", "count"},
	{"cardtable.barrier_marks_per_kreq", "count"}, {"cardtable.buffer_flushes", "count"},
	{"arena.freelist_retries", "count"}, {"arena.shard_steals", "count"},
	{"prof.live", "ratio"}, {"prof.server", "ratio"}, {"prof.workpack", "ratio"},
	{"prof.cardtable", "ratio"}, {"prof.bitvec", "ratio"}, {"prof.heapsim", "ratio"},
	{"prof.core", "ratio"}, {"prof.machine", "ratio"}, {"prof.workload", "ratio"},
	{"prof.runtime", "ratio"}, {"prof.bench", "ratio"}, {"prof.other", "ratio"},
	{"bench.late_p99_us", "us"}, {"bench.steal_pct", "%"}, {"bench.clock_ns", "ns"},
	{"sim.cycles", "count"}, {"sim.tx", "count"}, {"sim.pause_avg_ms_virtual", "ms"},
}

var workloads = []string{"kv_churn", "kv_bigheap", "sim_jbb"}

type options struct {
	workload string
	seed     uint64
	seconds  time.Duration
	trace    bool
}

// outcome is what one workload run hands back to main.
type outcome struct {
	e2e, layer        map[string]float64
	attempted, failed int64
	phases            []*phase
	samples           map[string]int64
	ctx               map[string]any
	problems          []string
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}, ctx: map[string]any{}}
}

func (o *outcome) fail(msgs ...string) { o.problems = append(o.problems, msgs...) }

func main() {
	var (
		wl      = flag.String("workload", "", "workload: kv_churn, kv_bigheap or sim_jbb")
		seed    = flag.Uint64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 20, "measured seconds")
		trace   = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	)
	flag.Parse()
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be >= 1 and --trace 0 or 1")
		os.Exit(2)
	}
	o := options{workload: *wl, seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1}
	clockNs := clockCostNs()

	var out *outcome
	var err error
	switch {
	case o.workload == "sim_jbb":
		out, err = runSim(o)
	case kvSpecs[o.workload].objects > 0:
		out, err = runKV(o.workload, kvSpecs[o.workload], o)
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want one of %v)\n", o.workload, workloads)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	out.layer["bench.clock_ns"] = clockNs
	report(o, out, clockNs)
	if len(out.problems) > 0 {
		os.Exit(1)
	}
}

// report prints the human-readable metrics, context and phases, then the
// result JSON as the last line.
func report(o options, out *outcome, clockNs float64) {
	ctx := hostContext()
	for k, v := range out.ctx {
		ctx[k] = v
	}
	ctx["workload"] = o.workload
	ctx["seed"] = o.seed
	ctx["seconds"] = o.seconds.Seconds()
	ctx["traced"] = o.trace
	ctx["clock_ns"] = clockNs
	ctx["samples"] = out.samples
	ctx["steal_pct"] = out.layer["bench.steal_pct"]
	printJSONLine("context", ctx)
	for _, p := range out.phases {
		fmt.Printf("phase %-8s attempted %d completed %d failed %d wall %.3fs\n",
			p.name, p.issued, p.completed, p.failed, p.wall.Seconds())
	}

	e2e := map[string]metric{}
	for _, d := range endToEnd {
		v, ok := out.e2e[d.name]
		if !ok {
			out.fail("missing end-to-end metric " + d.name)
		}
		e2e[d.name] = metric{v, d.unit}
		fmt.Printf("metric %-34s %14.4f %s\n", d.name, v, d.unit)
	}
	layer := map[string]metric{}
	for _, d := range perLayer {
		v := out.layer[d.name]
		layer[d.name] = metric{v, d.unit}
		fmt.Printf("layer  %-34s %14.4f %s\n", d.name, v, d.unit)
	}
	// The traced run's end-to-end figures, for the overhead comparison
	// repeat.py makes against the untraced median.
	if o.trace {
		printJSONLine("traced_e2e", e2e)
	}
	sort.Strings(out.problems)
	for _, p := range out.problems {
		fmt.Fprintln(os.Stderr, "CHECK FAILED:", p)
	}
	res := struct {
		Correct   bool              `json:"correct"`
		Attempted int64             `json:"attempted"`
		Failed    int64             `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{len(out.problems) == 0, out.attempted, out.failed, e2e}
	if o.trace {
		res.Metrics = layer
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func printJSONLine(tag string, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return
	}
	fmt.Printf("%s %s\n", tag, b)
}

// startProfile starts the traced run's CPU profile; the returned stop
// function ends it and reduces it to per-layer self-time shares.
func startProfile() (func() (map[string]float64, error), error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	return func() (map[string]float64, error) {
		pprof.StopCPUProfile()
		return profileShares(buf.Bytes())
	}, nil
}

func addShares(l map[string]float64, shares map[string]float64) {
	for layer, s := range shares {
		l["prof."+layer] = s
	}
}

func maxRSSKB() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss
}
