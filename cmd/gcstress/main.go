// Command gcstress runs the live engine: the mostly-concurrent collector on
// a real shared heap mutated by real goroutines (internal/live), as opposed
// to cmd/gcsim's simulated SMP. Build and run it with -race to put the
// packet pool, card table and publication protocols under the race detector;
// the built-in STW oracle independently verifies that no cycle loses a live
// object.
//
// The -chaos flag arms the deterministic fault-injection layer
// (internal/faultinject): a spec like "pool.exhaust=1/4,live.tracerstall=3:2ms"
// forces the collector's rare paths at a chosen, seeded rate. Per-fault
// trigger counts are printed after the run and land in the metrics JSONL as
// fault.<site>.{hits,fires} counters. "-chaos list" prints every site.
//
// Examples:
//
//	gcstress -mutators 4 -tracers 2 -duration 5s
//	gcstress -pacing -kickoff-headroom 4096 -duration 5s -require-paced
//	gcstress -shape pointer -packets 10 -packetcap 8 -duration 10s
//	gcstress -duration 2s -metrics stress.jsonl -trace stress.trace.json
//	gcstress -chaos "pool.exhaust=1/4" -chaos-seed 7 -require-faults
//	gcstress -chaos "live.wedge=on" -wedge-timeout 500ms   # exits 2, no hang
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"mcgc/internal/distill"
	"mcgc/internal/faultinject"
	"mcgc/internal/live"
	"mcgc/internal/runmeta"
	"mcgc/internal/telemetry"
)

func main() {
	var (
		mutators   = flag.Int("mutators", 4, "mutator goroutines")
		tracers    = flag.Int("tracers", 2, "dedicated tracer goroutines")
		bg         = flag.Int("bg", 1, "low-priority background tracer goroutines")
		duration   = flag.Duration("duration", 2*time.Second, "run length")
		seed       = flag.Int64("seed", 1, "workload seed")
		objects    = flag.Int("objects", 1<<15, "arena size in objects")
		refs       = flag.Int("refs", 4, "reference slots per object")
		roots      = flag.Int("roots", 32, "root slots per mutator")
		packets    = flag.Int("packets", 64, "work packets in the pool (small values force overflow)")
		packetCap  = flag.Int("packetcap", 32, "entries per packet")
		allocBatch = flag.Int("allocbatch", 16, "allocation-bit publication batch size")
		cardPasses = flag.Int("cardpasses", 2, "concurrent card cleaning passes per cycle")
		shape      = flag.String("shape", "mixed", "workload shape: mixed, churn or pointer")
		metricsOut = flag.String("metrics", "", "write metrics JSONL to this file")
		traceOut   = flag.String("trace", "", "write Chrome trace_event JSON to this file")

		chaos     = flag.String("chaos", "", `fault-injection spec ("list" prints the sites)`)
		chaosSeed = flag.Int64("chaos-seed", 1, "fault-injection seed (independent of -seed)")
		wedgeTO   = flag.Duration("wedge-timeout", 5*time.Second, "abort a cycle making no tracing progress for this long")
		timeout   = flag.Duration("timeout", 0, "kill the whole run after this long with a goroutine dump (0 disables)")
		reqFaults = flag.Bool("require-faults", false, "exit 1 unless every spec-named fault point fired at least once")

		reqPaced = flag.Bool("require-paced", false, "exit 1 unless pacing did real work: >=1 paced increment and zero allocation failures")
	)
	// The sharding knobs, -name, -pacing and the pacing vocabulary of
	// internal/pacing are bound through the helper gcserve shares, so the
	// same -localcache/-k0 spellings mean the same thing in both CLIs. The
	// pacing word unit for the live engine is one object.
	common := live.BindCommonFlags(flag.CommandLine, false)
	flag.Parse()

	if *chaos == "list" {
		for _, line := range faultinject.Sites() {
			fmt.Println(line)
		}
		fmt.Println("jitter               schedule perturbator applied at every site's every hit")
		return
	}
	plan, err := faultinject.Parse(*chaos, *chaosSeed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gcstress: %v\n", err)
		os.Exit(1)
	}

	cfg := live.Config{
		Objects:         *objects,
		RefsPerObject:   *refs,
		RootsPerMutator: *roots,
		Mutators:        *mutators,
		Tracers:         *tracers,
		BgTracers:       *bg,
		Packets:         *packets,
		PacketCap:       *packetCap,
		AllocBatch:      *allocBatch,
		CardPasses:      *cardPasses,
		Duration:        *duration,
		Seed:            *seed,
		Shape:           *shape,
	}
	cfg.FaultOptions = live.FaultOptions{Faults: plan, WedgeTimeout: *wedgeTO}
	common.Apply(&cfg)

	// Telemetry rides the same sinks as the simulator suite so gcstats can
	// read both; the live engine's time axis is wall-clock nanoseconds.
	col := telemetry.NewCollector(*traceOut != "")
	name := common.RunName(fmt.Sprintf("%s/m=%d/t=%d", *shape, *mutators, *tracers+*bg))
	run := col.StartRun(runmeta.Run{
		Exp:     "gcstress",
		Name:    name,
		Seed:    *seed,
		Workers: *mutators + *tracers + *bg,
	})
	cfg.Reg = run.Registry
	cfg.TL = run.Timeline

	suite := runmeta.Suite{
		Scale:      "live",
		J:          1,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		StartedAt:  time.Now().UTC().Format(time.RFC3339),
	}

	// The hard watchdog backstops everything else: if the engine's own wedge
	// detection is itself broken, the process still dies with a stack dump
	// instead of hanging the harness.
	if *timeout > 0 {
		go func() {
			time.Sleep(*timeout)
			fmt.Fprintf(os.Stderr, "gcstress: run exceeded -timeout %v; goroutine dump follows\n", *timeout)
			buf := make([]byte, 1<<20)
			os.Stderr.Write(buf[:runtime.Stack(buf, true)])
			os.Exit(2)
		}()
	}

	runArm := func(c live.Config) (live.Report, distill.Arm) {
		eng := live.NewEngine(c) // construction (arena zeroing) outside the timed window
		cpu0, wall0 := distill.CPUClock(), time.Now()
		r := eng.Run()
		arm := distill.Arm{
			WallNs:      int64(time.Since(wall0)),
			CPUNs:       int64(distill.CPUClock() - cpu0),
			Completed:   r.MutatorOps,
			Failed:      r.AllocFailed,
			Cycles:      r.Cycles,
			STWNs:       int64(r.STWTotal),
			AllocFailed: r.AllocFailed,
		}
		arm.FillThroughput()
		return r, arm
	}

	rep, realArm := runArm(cfg)
	fmt.Println(rep)

	var distRec *distill.Record
	if common.Distill {
		// Same distillation shape as gcserve, without latency quantiles:
		// the workload is synthetic churn, so the unit of progress is a
		// mutator op and the deltas are throughput and CPU only.
		base := cfg
		base.Objects = cfg.Objects + int(rep.ObjectsAllocated)*common.DistillMult
		base.PacingOptions = live.PacingOptions{DisableCollection: true}
		base.LadderOptions = live.LadderOptions{}
		base.FaultOptions = live.FaultOptions{}
		base.ObserveOptions = live.ObserveOptions{}
		fmt.Printf("distill: re-running with collection disabled (arena %d objects)\n", base.Objects)
		_, baseArm := runArm(base)
		rec := distill.NewRecord(name, realArm, baseArm)
		distRec = &rec
		fmt.Println(rec)
		if common.DistillJSON != "" {
			if err := rec.AppendJSON(common.DistillJSON); err != nil {
				fmt.Fprintf(os.Stderr, "gcstress: %v\n", err)
				os.Exit(1)
			}
		}
	}

	if *metricsOut != "" {
		writeSink(*metricsOut, func(f *os.File) error { return col.WriteJSONL(f, suite) })
	}
	if *traceOut != "" {
		writeSink(*traceOut, func(f *os.File) error { return col.WriteTrace(f, suite) })
	}

	// One funnel for every failure path, shared with gcserve: the engine
	// verdict maps onto live.ExitOK/ExitInvariant/ExitWedge, -require-*
	// assertions raise ExitInvariant, and any nonzero exit prints the
	// one-line repro command so the failure reruns from the log alone.
	code := live.ReportExit(&rep)
	raise := func(c int) {
		if c > code {
			code = c
		}
	}
	if rep.Wedged {
		fmt.Fprintf(os.Stderr, "gcstress: %s\n", rep.WedgeDiagnosis)
	}
	for _, v := range rep.Violations {
		fmt.Fprintf(os.Stderr, "gcstress: oracle: %s\n", v)
	}
	if rep.LostObjects > 0 {
		fmt.Fprintf(os.Stderr, "gcstress: oracle lost %d live objects\n", rep.LostObjects)
	}
	if *reqPaced {
		if rep.PacedIncrements == 0 {
			fmt.Fprintln(os.Stderr, "gcstress: -require-paced: no paced increments (is -pacing on?)")
			raise(live.ExitInvariant)
		}
		if rep.AllocFailed > 0 {
			fmt.Fprintf(os.Stderr, "gcstress: -require-paced: %d allocation failures — pacing did not keep tracing ahead of allocation\n", rep.AllocFailed)
			raise(live.ExitInvariant)
		}
	}
	if *reqFaults {
		for _, p := range rep.Faults {
			if p.Explicit && p.Fires == 0 {
				fmt.Fprintf(os.Stderr, "gcstress: fault point %s never fired (%d hits)\n", p.Name, p.Hits)
				raise(live.ExitInvariant)
			}
		}
	}
	if distRec != nil && distRec.BaselineContaminated {
		fmt.Fprintln(os.Stderr, "gcstress: distill baseline contaminated (collected or exhausted); raise -distill-mult")
		raise(live.ExitInvariant)
	}
	if code != live.ExitOK {
		fmt.Fprintln(os.Stderr, live.ReproLine("gcstress", *seed, plan,
			common.ReproFlags(), fmt.Sprintf("-shape %s", *shape)))
		os.Exit(code)
	}
}

func writeSink(path string, write func(*os.File) error) {
	f, err := os.Create(path)
	if err == nil {
		err = write(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "gcstress: %v\n", err)
		os.Exit(1)
	}
}
