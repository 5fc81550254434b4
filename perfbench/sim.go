package main

import (
	"fmt"
	"runtime/debug"
	"sort"
	"time"

	"mcgc/gcsim"
	"mcgc/internal/workload"
)

// sim_jbb: the paper's collector in the simulator on the warehouse workload
// at DefaultScale sizes. It bypasses the live engine and the server, so it is
// the no-change control for every live-engine change.
const (
	simHeap       = 64 << 20
	simWarehouses = 8
	simWarmup     = 500 * gcsim.Millisecond
	// simStep is the virtual quantum one timed VM.RunFor call advances.
	simStep = gcsim.Millisecond
	// simVirtualPerWall sizes the fixed virtual measure window from the
	// requested wall seconds; the window is fixed per --seconds, so every
	// virtual-time output depends on the seed alone.
	simVirtualPerWall = 1
)

type simRig struct {
	vm     *gcsim.VM
	jbb    *workload.JBB
	setup  time.Duration
	digest string
}

func newSimRig(seed uint64) (*simRig, error) {
	t0 := time.Now()
	vm := gcsim.New(gcsim.Options{
		HeapBytes:   simHeap,
		Processors:  4,
		Collector:   gcsim.CGC,
		WorkPackets: 1000,
	})
	jbb := vm.NewJBB(gcsim.JBBOptions{Warehouses: simWarehouses, Seed: int64(seed) + 1})
	for i := 0; i < 1000 && !jbb.Ready(); i++ {
		vm.RunFor(100 * gcsim.Millisecond)
	}
	if !jbb.Ready() {
		return nil, fmt.Errorf("sim_jbb: warehouses never became ready")
	}
	vm.RunFor(simWarmup)
	return &simRig{
		vm: vm, jbb: jbb, setup: time.Since(t0),
		digest: fmt.Sprintf("now=%d tx=%d cycles=%d", int64(vm.Now()), jbb.Transactions(), len(vm.Cycles())),
	}, nil
}

func runSim(o options) (*outcome, error) {
	out := newOutcome()
	var setups []time.Duration
	var r *simRig
	for i := 0; i < setupReps; i++ {
		r = nil
		debug.FreeOSMemory()
		var err error
		if r, err = newSimRig(o.seed); err != nil {
			return nil, err
		}
		setups = append(setups, r.setup)
		if i > 0 && r.digest != out.ctx["sim_setup_digest"] {
			out.fail(fmt.Sprintf("sim set-up %d is not deterministic: %s vs %v", i, r.digest, out.ctx["sim_setup_digest"]))
		}
		out.ctx["sim_setup_digest"] = r.digest
	}

	cpu0, _ := readCPUTimes()
	var stop func() (map[string]float64, error)
	if o.trace {
		var err error
		if stop, err = startProfile(); err != nil {
			return nil, err
		}
	}
	window := gcsim.Duration(o.seconds.Seconds()*simVirtualPerWall) * gcsim.Second
	steps := int(window / simStep)
	stepHist := newHist()
	cyc0, tx0 := len(r.vm.Cycles()), r.jbb.Transactions()
	w0 := time.Now()
	for i := 0; i < steps; i++ {
		s := time.Now()
		r.vm.RunFor(simStep)
		stepHist.observe(int64(time.Since(s)))
	}
	wall := time.Since(w0)
	cpu1, _ := readCPUTimes()
	var shares map[string]float64
	if stop != nil {
		var err error
		if shares, err = stop(); err != nil {
			return nil, err
		}
	}
	if err := r.jbb.CheckIntegrity(); err != nil {
		out.fail("sim integrity: " + err.Error())
	}
	cycles := r.vm.Cycles()[cyc0:]
	tx := r.jbb.Transactions() - tx0
	var pauseSum gcsim.Duration
	for i := range cycles {
		pauseSum += cycles[i].Pause
	}
	pauseAvgMs := 0.0
	if len(cycles) > 0 {
		pauseAvgMs = pauseSum.Milliseconds() / float64(len(cycles))
	} else {
		out.fail("sim: no collection cycle in the measure window")
	}

	sort.Slice(setups, func(i, j int) bool { return setups[i] < setups[j] })
	e := out.e2e
	e["setup_s"] = setups[len(setups)/2].Seconds()
	e["throughput_rps"] = float64(tx) / wall.Seconds()
	e["req_p50_us"] = stepHist.quantile(0.50) / 1e3
	e["req_p99_us"] = stepHist.quantile(0.99) / 1e3
	e["pause_mean_ms"] = pauseAvgMs
	e["rss_peak_mb"] = maxRSSMB()

	l := out.layer
	l["sim.cycles"] = float64(len(cycles))
	l["sim.tx"] = float64(tx)
	l["sim.pause_avg_ms_virtual"] = pauseAvgMs
	l["bench.steal_pct"] = stealPct(cpu0, cpu1)
	addShares(l, shares)

	out.attempted = int64(steps)
	out.phases = []*phase{{name: "measure", issued: int64(steps), completed: int64(steps), wall: wall}}
	out.samples = map[string]int64{"step": stepHist.n}
	out.ctx["virtual_window_s"] = window.Seconds()
	out.ctx["sim_window_digest"] = fmt.Sprintf("tx=%d cycles=%d pause_sum_ns=%d", tx, len(cycles), int64(pauseSum))
	out.ctx["sim_processors"] = 4
	return out, nil
}
