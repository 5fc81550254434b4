// Command gcserve drives the live collector with a server-shaped workload:
// a sharded in-memory KV/session store whose values live in the collected
// arena, hammered by a closed loop of concurrent clients with Zipfian key
// skew, a configurable read/write mix, phase-locked request bursts and
// connection churn (internal/server). Every request is timed; the run's
// server.req_ns latency histogram and server.* counters land in the metrics
// JSONL next to the collector's own counters, and gcstats latency reads
// them back to correlate GC pauses with request-latency tails.
//
// The per-cycle STW oracle stays armed: a run that loses a live store entry
// or session object exits 1, a wedged run exits 2, exactly like gcstress.
//
// With -pacing the engine paces on the Section 3 formula, the same policy
// the simulator drives. With -distill the same seeded workload re-runs with
// collection disabled on an arena sized to never collect (Cai & Blackburn's
// ideal baseline), and the run reports the distilled collector cost:
// throughput delta, latency delta, CPU share.
//
// Examples:
//
//	gcserve -clients 128 -duration 5s
//	gcserve -clients 64 -readfrac 0.9 -churn 500 -metrics serve.jsonl
//	gcserve -clients 256 -burst-period 100ms -burst-duty 0.4 -pacing
//	gcserve -clients 32 -chaos "pool.exhaust=1/4" -require-faults
//	gcserve -clients 64 -pacing -distill -distill-json cells.jsonl
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
	"mcgc/internal/server"
	"mcgc/internal/stats"
	"mcgc/internal/telemetry"
)

func main() {
	var (
		clients  = flag.Int("clients", 128, "concurrent client goroutines (each is one external mutator)")
		shards   = flag.Int("shards", 8, "store shards (rounded up to a power of two)")
		buckets  = flag.Int("buckets", 64, "bucket-chain root slots per shard")
		keys     = flag.Int("keys", 4096, "key-space size")
		zipf     = flag.Float64("zipf", 0.99, "Zipfian key skew theta (0 = uniform)")
		readFrac = flag.Float64("readfrac", 0.70, "fraction of requests that are GETs")
		delFrac  = flag.Float64("deletefrac", 0.05, "fraction of requests that are DELETEs")
		tchFrac  = flag.Float64("touchfrac", 0.10, "fraction of requests that are session touches")
		valSize  = flag.Int("valsize", 2, "arena objects per stored value")
		burstP   = flag.Duration("burst-period", 0, "request burst period (0 = steady load)")
		burstD   = flag.Float64("burst-duty", 0.5, "fraction of each burst period spent issuing")
		churn    = flag.Int("churn", 400, "mean completed requests between connection churns (0 disables)")
		duration = flag.Duration("duration", 2*time.Second, "run length")
		seed     = flag.Int64("seed", 1, "workload seed")

		objects    = flag.Int("objects", 1<<15, "arena size in objects")
		refs       = flag.Int("refs", 4, "reference slots per object (store needs >= 3)")
		roots      = flag.Int("roots", 8, "root slots per client")
		tracers    = flag.Int("tracers", 2, "dedicated tracer goroutines")
		bg         = flag.Int("bg", 1, "low-priority background tracer goroutines")
		packets    = flag.Int("packets", 256, "work packets in the pool")
		packetCap  = flag.Int("packetcap", 32, "entries per packet")
		allocBatch = flag.Int("allocbatch", 16, "allocation-bit publication batch size")
		cardPasses = flag.Int("cardpasses", 2, "concurrent card cleaning passes per cycle")

		metricsOut = flag.String("metrics", "", "write metrics JSONL to this file")
		traceOut   = flag.String("trace", "", "write Chrome trace_event JSON to this file")

		admitOn  = flag.Bool("admission", false, "enable admission control: shed allocating requests when free-heap headroom drops below the watermark")
		shedWM   = flag.Float64("shed-watermark", 0, "free-heap headroom fraction below which PUTs are shed, touches at twice this (0 = default 0.04)")
		evictN   = flag.Int("evict-batch", 0, "oldest store entries evicted when a PUT hits heap exhaustion (0 = default 16)")
		putRetry = flag.Int("put-retries", 0, "backoff-and-retry rounds a shed PUT gets before giving up (0 = default 2)")
		retryBO  = flag.Duration("retry-backoff", 0, "base of the jittered backoff between shed-put retries (0 = default 200µs)")

		chaos       = flag.String("chaos", "", `fault-injection spec ("list" prints the sites)`)
		chaosSeed   = flag.Int64("chaos-seed", 1, "fault-injection seed (independent of -seed)")
		wedgeTO     = flag.Duration("wedge-timeout", 5*time.Second, "abort a cycle making no tracing progress for this long")
		timeout     = flag.Duration("timeout", 0, "kill the whole run after this long with a goroutine dump (0 disables)")
		reqFaults   = flag.Bool("require-faults", false, "exit 1 unless every spec-named fault point fired at least once")
		minOps      = flag.Int64("min-ops", 0, "exit 1 unless at least this many requests completed")
		reqDegraded = flag.Bool("require-degraded", false, "exit 1 unless the overload ladder visibly engaged: nonzero sheds and emergency cycles")
	)
	// Shared knob vocabulary with gcstress: -localcache/-freeshards/-cardbuf,
	// -name and the full pacing flag set, all bound through the common
	// helper so the same spellings mean the same thing in both CLIs.
	common := live.BindCommonFlags(flag.CommandLine, false)
	flag.Parse()

	if *chaos == "list" {
		for _, line := range faultinject.Sites() {
			fmt.Println(line)
		}
		return
	}
	plan, err := faultinject.Parse(*chaos, *chaosSeed)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gcserve: %v\n", err)
		os.Exit(1)
	}

	cfg := live.Config{
		Objects:         *objects,
		RefsPerObject:   *refs,
		RootsPerMutator: *roots,
		Mutators:        0,
		ExtMutators:     *clients,
		Tracers:         *tracers,
		BgTracers:       *bg,
		Packets:         *packets,
		PacketCap:       *packetCap,
		AllocBatch:      *allocBatch,
		CardPasses:      *cardPasses,
		Duration:        *duration,
		Seed:            *seed,
	}
	cfg.FaultOptions = live.FaultOptions{Faults: plan, WedgeTimeout: *wedgeTO}
	common.Apply(&cfg)

	col := telemetry.NewCollector(*traceOut != "")
	name := common.RunName(fmt.Sprintf("serve/c=%d/k=%d/z=%.2f", *clients, *keys, *zipf))
	run := col.StartRun(runmeta.Run{
		Exp:     "gcserve",
		Name:    name,
		Seed:    *seed,
		Workers: *clients + *tracers + *bg,
	})
	cfg.Reg = run.Registry
	cfg.TL = run.Timeline

	suite := runmeta.Suite{
		Scale:      "live",
		J:          1,
		GoMaxProcs: runtime.GOMAXPROCS(0),
		StartedAt:  time.Now().UTC().Format(time.RFC3339),
	}

	if *timeout > 0 {
		go func() {
			time.Sleep(*timeout)
			fmt.Fprintf(os.Stderr, "gcserve: run exceeded -timeout %v; goroutine dump follows\n", *timeout)
			buf := make([]byte, 1<<20)
			os.Stderr.Write(buf[:runtime.Stack(buf, true)])
			os.Exit(2)
		}()
	}

	storeCfg := server.StoreConfig{
		Shards:    *shards,
		Buckets:   *buckets,
		ValueObjs: *valSize,
	}
	loadCfg := server.LoadConfig{
		Clients:     *clients,
		Keys:        *keys,
		Theta:       *zipf,
		ReadFrac:    *readFrac,
		DeleteFrac:  *delFrac,
		TouchFrac:   *tchFrac,
		BurstPeriod: *burstP,
		BurstDuty:   *burstD,
		ChurnOps:    *churn,
		Seed:        uint64(*seed),
		Duration:    *duration,
		Admission: server.AdmissionConfig{
			Enabled:       *admitOn,
			ShedWatermark: *shedWM,
			RetryBackoff:  *retryBO,
			MaxRetries:    *putRetry,
			EvictBatch:    *evictN,
		},
	}

	rep, res, st, realArm := runServe(cfg, storeCfg, loadCfg)
	// The registry is unsynchronized and driver-owned: the server results
	// flush into it only now, after every client and engine worker is done.
	res.Flush(run.Registry)

	fmt.Println(rep)
	fmt.Printf("store: %d entries live in %d shards\n", st.Len(), st.Config().Shards)
	fmt.Println(res)

	var distRec *distill.Record
	if common.Distill {
		// Distillation baseline: the identical seeded workload with the
		// collector off, on an arena sized from the real run's measured
		// allocations so it never collects (the baseline runs faster, so
		// -distill-mult leaves headroom over the measured count). Telemetry,
		// faults, the ladder and admission shedding are all dropped — the
		// baseline is the ideal the real run is measured against, not
		// another experiment.
		base := cfg
		base.Objects = cfg.Objects + int(rep.ObjectsAllocated)*common.DistillMult
		base.PacingOptions = live.PacingOptions{DisableCollection: true}
		base.LadderOptions = live.LadderOptions{}
		base.FaultOptions = live.FaultOptions{}
		base.ObserveOptions = live.ObserveOptions{}
		baseLoad := loadCfg
		baseLoad.Admission = server.AdmissionConfig{}
		fmt.Printf("distill: re-running with collection disabled (arena %d objects)\n", base.Objects)
		_, _, _, baseArm := runServe(base, storeCfg, baseLoad)
		rec := distill.NewRecord(name, realArm, baseArm)
		distRec = &rec
		fmt.Println(rec)
		if common.DistillJSON != "" {
			if err := rec.AppendJSON(common.DistillJSON); err != nil {
				fmt.Fprintf(os.Stderr, "gcserve: %v\n", err)
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

	// Every failure path funnels through one exit: the engine verdict maps to
	// the shared exit-code conventions (live.ExitOK/ExitInvariant/ExitWedge),
	// CLI-level assertions raise ExitInvariant on top, and any nonzero exit
	// prints the one-line repro command — seeds, chaos spec and the non-default
	// shared flags — so a CI failure is rerunnable from the log alone.
	code := live.ReportExit(&rep)
	raise := func(c int) {
		if c > code {
			code = c
		}
	}
	var admRepro []string
	if *admitOn {
		admRepro = append(admRepro, "-admission")
		if *shedWM != 0 {
			admRepro = append(admRepro, fmt.Sprintf("-shed-watermark %g", *shedWM))
		}
		if *evictN != 0 {
			admRepro = append(admRepro, fmt.Sprintf("-evict-batch %d", *evictN))
		}
		if *putRetry != 0 {
			admRepro = append(admRepro, fmt.Sprintf("-put-retries %d", *putRetry))
		}
		if *retryBO != 0 {
			admRepro = append(admRepro, fmt.Sprintf("-retry-backoff %s", *retryBO))
		}
	}
	if rep.Wedged {
		fmt.Fprintf(os.Stderr, "gcserve: %s\n", rep.WedgeDiagnosis)
	}
	for _, v := range rep.Violations {
		fmt.Fprintf(os.Stderr, "gcserve: oracle: %s\n", v)
	}
	if rep.LostObjects > 0 {
		fmt.Fprintf(os.Stderr, "gcserve: oracle lost %d live objects\n", rep.LostObjects)
	}
	if res.Issued != res.Completed+res.Failed {
		fmt.Fprintf(os.Stderr, "gcserve: request accounting broken: issued %d != completed %d + failed %d\n",
			res.Issued, res.Completed, res.Failed)
		raise(live.ExitInvariant)
	}
	if *minOps > 0 && res.Completed < *minOps {
		fmt.Fprintf(os.Stderr, "gcserve: only %d requests completed (-min-ops %d)\n", res.Completed, *minOps)
		raise(live.ExitInvariant)
	}
	if *reqFaults {
		for _, p := range rep.Faults {
			if p.Explicit && p.Fires == 0 {
				fmt.Fprintf(os.Stderr, "gcserve: fault point %s never fired (%d hits)\n", p.Name, p.Hits)
				raise(live.ExitInvariant)
			}
		}
	}
	if distRec != nil && distRec.BaselineContaminated {
		fmt.Fprintln(os.Stderr, "gcserve: distill baseline contaminated (collected or exhausted); raise -distill-mult")
		raise(live.ExitInvariant)
	}
	if *reqDegraded {
		if res.Shed == 0 {
			fmt.Fprintln(os.Stderr, "gcserve: -require-degraded: no requests shed (is -admission on and the load high enough?)")
			raise(live.ExitInvariant)
		}
		if rep.EmergencyCycles == 0 {
			fmt.Fprintln(os.Stderr, "gcserve: -require-degraded: no emergency collections (is -ladder on and the load high enough?)")
			raise(live.ExitInvariant)
		}
	}
	if code != live.ExitOK {
		extra := append([]string{common.ReproFlags()}, admRepro...)
		fmt.Fprintln(os.Stderr, live.ReproLine("gcserve", *seed, plan, extra...))
		os.Exit(code)
	}
}

// runServe builds and runs one engine+store+loadgen arm, returning the
// engine report, the merged load-generator results, the store (for the
// entries-live print) and the arm's distilled measurement (wall, process
// CPU, completions, latency quantiles, collector activity).
func runServe(cfg live.Config, storeCfg server.StoreConfig, loadCfg server.LoadConfig) (live.Report, server.Results, *server.Store, distill.Arm) {
	eng := live.NewEngine(cfg)
	st := server.NewStore(eng, storeCfg)
	lg := server.NewLoadGen(eng, st, loadCfg)

	cpu0, wall0 := distill.CPUClock(), time.Now()
	lg.Start()
	rep := eng.Run()
	res := lg.Wait()
	arm := distill.Arm{
		WallNs:      int64(time.Since(wall0)),
		CPUNs:       int64(distill.CPUClock() - cpu0),
		Completed:   res.Completed,
		Failed:      res.Failed,
		Cycles:      rep.Cycles,
		STWNs:       int64(rep.STWTotal),
		AllocFailed: rep.AllocFailed,
	}
	if res.Hist != nil {
		arm.P50Ns = res.Hist.Quantile(stats.P50)
		arm.P99Ns = res.Hist.Quantile(stats.P99)
		arm.P999Ns = res.Hist.Quantile(stats.P999)
	}
	arm.FillThroughput()
	return rep, res, st, arm
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
		fmt.Fprintf(os.Stderr, "gcserve: %v\n", err)
		os.Exit(1)
	}
}
