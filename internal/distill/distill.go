// Package distill implements the cost-distillation methodology of Cai &
// Blackburn ("Distilling the Real Cost of Production Garbage Collectors"):
// run the workload twice — once for real, once with collection disabled on
// an arena sized to never collect — and report the delta as the collector's
// distilled cost. The baseline is the unreachable ideal (no cycles, no
// write-barrier work, no tax), so the deltas bound the collector's true
// overhead from above: throughput loss, tail-latency inflation, and the CPU
// the collector burns per unit of work.
//
// Records from a sweep (one per pacing configuration) line up into a Pareto
// curve of collector CPU overhead versus p99 latency; MarkFrontier computes
// the frontier and the dominance relation gcstats' pareto view prints.
package distill

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// Arm is one measured run: the real arm or the collection-disabled baseline.
type Arm struct {
	WallNs int64 `json:"wall_ns"`
	CPUNs  int64 `json:"cpu_ns"` // process CPU consumed during the arm (user+sys)

	// Completed counts the workload's unit of progress: requests for
	// gcserve, mutator ops for gcstress. Failed counts the ones refused
	// (allocation failure, shedding).
	Completed int64 `json:"completed"`
	Failed    int64 `json:"failed,omitempty"`

	// Throughput is Completed per wall second.
	Throughput float64 `json:"throughput"`

	// Latency quantiles in nanoseconds; zero when the workload is not
	// request-shaped (gcstress).
	P50Ns  float64 `json:"p50_ns,omitempty"`
	P99Ns  float64 `json:"p99_ns,omitempty"`
	P999Ns float64 `json:"p999_ns,omitempty"`

	// Collector activity during the arm — all zero on a valid baseline.
	Cycles      int   `json:"cycles"`
	STWNs       int64 `json:"stw_ns,omitempty"`
	AllocFailed int64 `json:"alloc_failed,omitempty"`
}

// FillThroughput computes the derived throughput field.
func (a *Arm) FillThroughput() {
	if a.WallNs > 0 {
		a.Throughput = float64(a.Completed) / (float64(a.WallNs) / float64(time.Second))
	}
}

// Record is one distilled measurement: a named pacing configuration, its
// two arms, and the derived overheads.
type Record struct {
	// Name identifies the configuration in the sweep (e.g. "formula/k0=8").
	Name string `json:"name"`

	Real     Arm `json:"real"`
	Baseline Arm `json:"baseline"`

	// CPUOverhead is the distilled collector CPU cost: the fractional
	// increase in CPU per completed unit over the baseline,
	// (cpuR/doneR - cpuB/doneB) / (cpuB/doneB). This is the x-axis of the
	// Pareto curve.
	CPUOverhead float64 `json:"cpu_overhead"`
	// GCCPUShare estimates the share of the real arm's CPU attributable to
	// collection: max(0, 1 - (cpuB/doneB)/(cpuR/doneR)).
	GCCPUShare float64 `json:"gc_cpu_share"`
	// ThroughputLoss is (tputB - tputR) / tputB: the fraction of ideal
	// throughput the collector costs.
	ThroughputLoss float64 `json:"throughput_loss"`
	// P99DeltaNs is realP99 - baselineP99: the tail inflation. The real
	// arm's absolute P99 (Real.P99Ns) is the y-axis of the Pareto curve.
	P99DeltaNs float64 `json:"p99_delta_ns,omitempty"`

	// BaselineContaminated flags a baseline that collected or exhausted
	// its arena — the record's deltas understate or garble the real cost
	// and must not enter a frontier. Raise -distill-mult.
	BaselineContaminated bool `json:"baseline_contaminated,omitempty"`

	// Frontier and DominatedBy are filled by MarkFrontier.
	Frontier    bool   `json:"frontier,omitempty"`
	DominatedBy string `json:"dominated_by,omitempty"`
}

// NewRecord derives the overhead fields from the two arms.
func NewRecord(name string, real, baseline Arm) Record {
	r := Record{Name: name, Real: real, Baseline: baseline}
	if baseline.Cycles > 0 || baseline.AllocFailed > 0 {
		r.BaselineContaminated = true
	}
	cpuPerR := perUnit(real.CPUNs, real.Completed)
	cpuPerB := perUnit(baseline.CPUNs, baseline.Completed)
	if cpuPerB > 0 {
		r.CPUOverhead = (cpuPerR - cpuPerB) / cpuPerB
	}
	if cpuPerR > 0 {
		r.GCCPUShare = 1 - cpuPerB/cpuPerR
		if r.GCCPUShare < 0 {
			r.GCCPUShare = 0
		}
	}
	if baseline.Throughput > 0 {
		r.ThroughputLoss = (baseline.Throughput - real.Throughput) / baseline.Throughput
	}
	if real.P99Ns > 0 && baseline.P99Ns > 0 {
		r.P99DeltaNs = real.P99Ns - baseline.P99Ns
	}
	return r
}

func perUnit(total, units int64) float64 {
	if units <= 0 {
		return 0
	}
	return float64(total) / float64(units)
}

// String renders the record the way the CLIs print it after a -distill run.
func (r Record) String() string {
	s := fmt.Sprintf(
		"distilled[%s]:\n"+
			"  real:     %10.0f/s  cpu %8s  p99 %8s  (cycles %d, stw %s)\n"+
			"  baseline: %10.0f/s  cpu %8s  p99 %8s  (cycles %d)\n"+
			"  overhead: cpu/unit %+.1f%%  gc cpu share %.1f%%  throughput %+.1f%%  p99 %+s",
		r.Name,
		r.Real.Throughput, fmtNs(r.Real.CPUNs), fmtNsF(r.Real.P99Ns),
		r.Real.Cycles, fmtNs(r.Real.STWNs),
		r.Baseline.Throughput, fmtNs(r.Baseline.CPUNs), fmtNsF(r.Baseline.P99Ns),
		r.Baseline.Cycles,
		100*r.CPUOverhead, 100*r.GCCPUShare, -100*r.ThroughputLoss,
		fmtNsF(r.P99DeltaNs))
	if r.BaselineContaminated {
		s += "\n  WARNING: baseline contaminated (collected or exhausted); raise -distill-mult"
	}
	return s
}

func fmtNs(ns int64) string { return fmtNsF(float64(ns)) }

func fmtNsF(ns float64) string {
	switch {
	case ns == 0:
		return "-"
	case ns < 0:
		return "-" + fmtNsF(-ns)
	case ns < 1e3:
		return fmt.Sprintf("%.0fns", ns)
	case ns < 1e6:
		return fmt.Sprintf("%.1fµs", ns/1e3)
	case ns < 1e9:
		return fmt.Sprintf("%.2fms", ns/1e6)
	default:
		return fmt.Sprintf("%.2fs", ns/1e9)
	}
}

// AppendJSON appends the record as one JSON line to path, creating the file
// if needed — the accumulation format a sweep's cells share.
func (r Record) AppendJSON(path string) error {
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	_, werr := f.Write(append(b, '\n'))
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

// MedianByName collapses repeated cells — records sharing a Name — to the
// rep whose CPUOverhead is the median of its group, preserving first-
// appearance order. A sweep repeats each cell because the CPU-per-unit
// measurement is scheduling-noisy on small machines; the median rep (a real
// measured pair, not a synthetic average, so its arms stay coherent) is
// what enters the frontier. Contaminated reps are ignored unless every rep
// of a cell is contaminated.
func MedianByName(recs []Record) []Record {
	var order []string
	groups := map[string][]Record{}
	for _, r := range recs {
		if _, ok := groups[r.Name]; !ok {
			order = append(order, r.Name)
		}
		groups[r.Name] = append(groups[r.Name], r)
	}
	out := make([]Record, 0, len(order))
	for _, name := range order {
		g := groups[name]
		clean := g[:0:0]
		for _, r := range g {
			if !r.BaselineContaminated {
				clean = append(clean, r)
			}
		}
		if len(clean) > 0 {
			g = clean
		}
		sortByCPU(g)
		out = append(out, g[(len(g)-1)/2])
	}
	return out
}

func sortByCPU(recs []Record) {
	for i := 1; i < len(recs); i++ {
		for j := i; j > 0 && recs[j].CPUOverhead < recs[j-1].CPUOverhead; j-- {
			recs[j], recs[j-1] = recs[j-1], recs[j]
		}
	}
}

// MarkFrontier computes the Pareto frontier over (CPUOverhead, Real.P99Ns),
// lower better on both axes. A record is dominated when some other record is
// no worse on both axes and strictly better on at least one; dominated
// records get DominatedBy set to the name of one dominator (the one that is
// best on CPU among those that dominate it). Contaminated records never
// enter the frontier and dominate nothing.
func MarkFrontier(recs []Record) {
	valid := func(r *Record) bool { return !r.BaselineContaminated }
	for i := range recs {
		ri := &recs[i]
		ri.Frontier = false
		ri.DominatedBy = ""
		if !valid(ri) {
			continue
		}
		for j := range recs {
			rj := &recs[j]
			if i == j || !valid(rj) {
				continue
			}
			if dominates(rj, ri) && (ri.DominatedBy == "" || rj.CPUOverhead < dominatorCPU(recs, ri.DominatedBy)) {
				ri.DominatedBy = rj.Name
			}
		}
		ri.Frontier = ri.DominatedBy == ""
	}
}

// dominates reports whether a is no worse than b on both axes and strictly
// better on at least one.
func dominates(a, b *Record) bool {
	if a.CPUOverhead > b.CPUOverhead || a.Real.P99Ns > b.Real.P99Ns {
		return false
	}
	return a.CPUOverhead < b.CPUOverhead || a.Real.P99Ns < b.Real.P99Ns
}

func dominatorCPU(recs []Record, name string) float64 {
	for i := range recs {
		if recs[i].Name == name {
			return recs[i].CPUOverhead
		}
	}
	return 0
}

// ReadRecords parses a file of one-JSON-line records (AppendJSON output).
func ReadRecords(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []Record
	dec := json.NewDecoder(f)
	for dec.More() {
		var r Record
		if err := dec.Decode(&r); err != nil {
			return nil, fmt.Errorf("distill: %s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, nil
}
