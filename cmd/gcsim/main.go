// Command gcsim runs a single configuration of the simulated JVM with every
// knob exposed, and prints the collector's cycle log and summary. It is the
// exploratory companion to cmd/gcbench's fixed experiments.
//
// Examples:
//
//	gcsim -collector cgc -heap 64 -warehouses 8 -k0 8 -duration 5
//	gcsim -collector stw -heap 64 -warehouses 8
//	gcsim -collector cgc -workload javac -heap 25 -procs 1 -bg 1
//	gcsim -collector cgc -lazysweep -verbose
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"mcgc/gcsim"
	"mcgc/internal/pacing"
	"mcgc/internal/vtime"
)

func main() {
	var (
		collector  = flag.String("collector", "cgc", "collector: cgc or stw")
		heapMB     = flag.Int64("heap", 64, "heap size in MB")
		procs      = flag.Int("procs", 4, "simulated processors")
		wl         = flag.String("workload", "jbb", "workload: jbb, pbob, javac")
		warehouses = flag.Int("warehouses", 8, "jbb/pbob warehouses")
		terminals  = flag.Int("terminals", 0, "terminals per warehouse (default 1; pbob default 25)")
		think      = flag.Int64("think", 0, "pbob think time in ms (pbob default 20)")
		packets    = flag.Int("packets", 1000, "work packets in the pool")
		packetCap  = flag.Int("packetcap", 0, "entries per packet (default 493)")
		bg         = flag.Int("bg", 4, "background tracing threads (0 disables)")
		cardPasses = flag.Int("cardpasses", 1, "concurrent card cleaning passes")
		lazySweep  = flag.Bool("lazysweep", false, "defer sweep out of the pause (Section 7)")
		compaction = flag.Bool("compact", false, "incremental compaction (Section 2.3)")
		noMutator  = flag.Bool("nomutatortracing", false, "background-only tracing ablation")
		duration   = flag.Int64("duration", 5, "virtual seconds to simulate")
		residency  = flag.Float64("residency", 0.6, "target heap residency at the configured warehouse count")
		seed       = flag.Int64("seed", 1, "workload seed")
		verbose    = flag.Bool("verbose", false, "print every collection cycle")
		trace      = flag.Bool("gctrace", false, "stream -verbose:gc style lines as the run progresses")
		heapstats  = flag.Bool("heapstats", false, "print fragmentation and object-size statistics at the end")
	)
	// The Section 3 pacing parameters use the shared vocabulary of
	// internal/pacing.
	pacingCfg := pacing.Default()
	pacing.Bind(flag.CommandLine, &pacingCfg)
	flag.Parse()

	bgThreads := *bg
	if bgThreads == 0 {
		bgThreads = -1 // the facade uses negative to force zero
	}
	var traceW io.Writer
	if *trace {
		traceW = os.Stdout
	}
	vm := gcsim.New(gcsim.Options{
		GCTrace:               traceW,
		HeapBytes:             *heapMB << 20,
		Processors:            *procs,
		Collector:             gcsim.Collector(*collector),
		TracingRate:           pacingCfg.K0,
		Pacing:                &pacingCfg,
		WorkPackets:           *packets,
		PacketCapacity:        *packetCap,
		BackgroundThreads:     bgThreads,
		CardPasses:            *cardPasses,
		LazySweep:             *lazySweep,
		IncrementalCompaction: *compaction,
		NoMutatorTracing:      *noMutator,
	})

	var integrity func() error
	var txCount func() int64
	switch *wl {
	case "jbb", "pbob":
		jopts := gcsim.JBBOptions{
			Warehouses:     *warehouses,
			MaxWarehouses:  *warehouses,
			ResidencyAtMax: *residency,
			Seed:           *seed,
		}
		if *wl == "pbob" {
			jopts.TerminalsPerWarehouse = 25
			jopts.ThinkTime = 20 * vtime.Millisecond
		}
		if *terminals > 0 {
			jopts.TerminalsPerWarehouse = *terminals
		}
		if *think > 0 {
			jopts.ThinkTime = vtime.Duration(*think) * vtime.Millisecond
		}
		j := vm.NewJBB(jopts)
		integrity = j.CheckIntegrity
		txCount = j.Transactions
	case "javac":
		j := vm.NewJavac(0.7)
		integrity = func() error { return j.Err }
		txCount = func() int64 { return j.Units }
	default:
		fmt.Fprintf(os.Stderr, "gcsim: unknown workload %q\n", *wl)
		os.Exit(2)
	}

	vm.RunFor(vtime.Duration(*duration) * vtime.Second)

	if err := integrity(); err != nil {
		fmt.Fprintf(os.Stderr, "gcsim: INTEGRITY FAILURE: %v\n", err)
		os.Exit(1)
	}

	if *verbose {
		fmt.Println("cycle log:")
		for i, cs := range vm.Cycles() {
			fmt.Printf("  %3d %-13s pause=%-10v mark=%-10v sweep=%-10v tracedConc=%-8d cardsConc=%-5d cardsStw=%-5d liveAfter=%dKB\n",
				i, cs.Reason, cs.Pause, cs.MarkTime, cs.SweepTime,
				cs.BytesTracedConc>>10, cs.CardsCleanedConc, cs.CardsCleanedStw, cs.LiveAfter>>10)
		}
		fmt.Println()
	}
	fmt.Println(vm.Report())
	fmt.Printf("work completed: %d transactions/units in %v of virtual time\n", txCount(), vm.Now())
	if cgc := vm.CGCCollector(); cgc != nil {
		f := cgc.Fences()
		fmt.Printf("fences: alloc=%d packet=%d prescan=%d forced=%d (write barrier: 0); deferred=%d overflows=%d\n",
			f.AllocFences, f.PacketFences, f.MarkFences, f.ForcedFences, f.Deferred, f.Overflows)
		pool := cgc.Pool()
		fmt.Printf("packets: max in use %d/%d, max slots %d\n",
			pool.Stats.MaxInUse.Load(), pool.TotalPackets(), pool.Stats.MaxSlotsInUse.Load())
		if st := cgc.Compactor(); st != nil {
			fmt.Printf("compaction: evacuated %d objects (%d KB), pinned %d, fixed %d/%d slots, %d failed moves\n",
				st.EvacuatedObjects, st.EvacuatedBytes>>10, st.PinnedObjects,
				st.SlotsFixed, st.SlotsRemembered, st.FailedMoves)
		}
	}
	if *heapstats {
		fmt.Println("\nheap statistics:")
		fmt.Print(vm.Runtime().Heap.Fragmentation())
		hist, objects, live := vm.Runtime().Heap.ObjectSizeHistogram()
		fmt.Printf("objects: %d, live %d KB; size histogram:\n", objects, live>>10)
		for i, n := range hist {
			if n == 0 {
				continue
			}
			fmt.Printf("  [%6dB..%6dB): %d\n", 1<<i, 1<<(i+1), n)
		}
	}
}
