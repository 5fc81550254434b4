package live

import (
	"flag"
	"fmt"
	"strings"

	"mcgc/internal/faultinject"
	"mcgc/internal/pacing"
)

// CommonFlags is the flag vocabulary the live-engine CLIs (gcstress,
// gcserve) share: the sharding-tier knobs, the run-name override and the
// whole pacing flag set. Binding it from one place keeps the two commands
// from drifting — the same -localcache or -k0 spelling must mean the same
// thing whether the workload is synthetic churn or server traffic.
type CommonFlags struct {
	LocalCache int
	FreeShards int
	CardBuffer int
	Name       string

	// PacingOn gates whether Apply installs the pacing config; the knobs
	// themselves always parse so "-k0 3" without "-pacing" is not an error.
	PacingOn bool
	Pacing   pacing.Config

	// LadderOn gates the graceful-degradation ladder (degrade.go); the
	// tuning knobs parse regardless, like the pacing ones.
	LadderOn bool
	Ladder   LadderConfig

	// Distillation (Cai & Blackburn "distilled cost") knobs, likewise bound
	// once for every CLI: Distill re-runs the same seeded workload with
	// collection disabled and reports the delta, DistillMult sizes the
	// baseline arena (live arena plus DistillMult times the real run's
	// measured allocations, so it never exhausts even though the baseline
	// runs faster), DistillJSON appends the distill.Record line a sweep
	// collects into a Pareto curve.
	Distill     bool
	DistillMult int
	DistillJSON string
}

// BindCommonFlags registers the shared vocabulary on fs. pacingDefault is
// the -pacing default: gcstress keeps the historical opt-in false, gcserve
// paces by default (a server without an allocation tax just measures the
// free list draining).
func BindCommonFlags(fs *flag.FlagSet, pacingDefault bool) *CommonFlags {
	cf := &CommonFlags{Pacing: pacing.Default()}
	fs.IntVar(&cf.LocalCache, "localcache", 0, "per-worker packet cache per class (0 = default, negative disables the local tier)")
	fs.IntVar(&cf.FreeShards, "freeshards", 0, "free-list shards (0 = default, negative forces one shard)")
	fs.IntVar(&cf.CardBuffer, "cardbuf", 0, "per-mutator write-barrier card buffer (0 = default, negative dirties directly)")
	fs.StringVar(&cf.Name, "name", "", "override the run name in the sinks (so cat'ed JSONL files keep distinct runs)")
	fs.BoolVar(&cf.PacingOn, "pacing", pacingDefault, "enable Section 3 pacing: kickoff-driven cycles and a mutator allocation tax")
	fs.BoolVar(&cf.LadderOn, "ladder", false, "enable the graceful-degradation ladder: allocation backpressure and emergency STW fallback")
	fs.DurationVar(&cf.Ladder.BackpressureWait, "bp-wait", 0, "deadline for one backpressured allocation (0 = default 20ms)")
	fs.IntVar(&cf.Ladder.EmergencyMinFree, "emergency-min", 0, "freed-object floor below which a pressured cycle counts as starved (0 = allocation batch)")
	fs.IntVar(&cf.Ladder.EmergencyAfter, "emergency-after", 0, "consecutive starved cycles before an emergency STW collection (0 = default 2)")
	fs.BoolVar(&cf.Distill, "distill", false, "after the measured run, re-run the same seeded workload with collection disabled and report the distilled collector cost")
	fs.IntVar(&cf.DistillMult, "distill-mult", 4, "baseline arena headroom for -distill: arena objects plus this many times the real run's allocations (sized to never collect)")
	fs.StringVar(&cf.DistillJSON, "distill-json", "", "append the distilled-cost record as one JSON line to this file")
	pacing.Bind(fs, &cf.Pacing)
	return cf
}

// Apply copies the shared knobs onto an engine config (call after Parse).
func (cf *CommonFlags) Apply(cfg *Config) {
	cfg.LocalCache = cf.LocalCache
	cfg.FreeShards = cf.FreeShards
	cfg.CardBuffer = cf.CardBuffer
	if cf.PacingOn {
		p := cf.Pacing
		cfg.Pacing = &p
	}
	if cf.LadderOn {
		cfg.Ladder = cf.Ladder
		cfg.Ladder.Enabled = true
	}
}

// RunName returns the -name override, or fallback when none was given.
func (cf *CommonFlags) RunName(fallback string) string {
	if cf.Name != "" {
		return cf.Name
	}
	return fallback
}

// String renders the sharding knobs for debug output.
func (cf *CommonFlags) String() string {
	return fmt.Sprintf("localcache=%d freeshards=%d cardbuf=%d pacing=%t ladder=%t",
		cf.LocalCache, cf.FreeShards, cf.CardBuffer, cf.PacingOn, cf.LadderOn)
}

// The exit-code conventions every live-engine CLI follows (README "Exit
// codes"): 0 for a clean run, 1 for an invariant failure — oracle loss,
// broken accounting, an unmet -require-* assertion — and 2 for a wedge or
// hang, whether detected by the engine's watchdog or the CLI's hard timeout.
const (
	ExitOK        = 0
	ExitInvariant = 1
	ExitWedge     = 2
)

// ReproLine renders the one-line repro command a failing run prints: the
// program with the seeds and any extra flags that shaped the failure. The
// fault spec is included only when a plan was armed.
func ReproLine(prog string, seed int64, plan *faultinject.Plan, extra ...string) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s: reproduce with -seed %d", prog, seed)
	if plan.String() != "" {
		fmt.Fprintf(&b, " -chaos %q -chaos-seed %d", plan.String(), plan.Seed())
	}
	for _, e := range extra {
		if e != "" {
			b.WriteByte(' ')
			b.WriteString(e)
		}
	}
	return b.String()
}

// ReproFlags reconstructs the shared-vocabulary flags that differ from their
// defaults, for ReproLine's extra arguments — so the printed command really
// reproduces a run that had -ladder or -pacing on.
func (cf *CommonFlags) ReproFlags() string {
	var parts []string
	if cf.PacingOn {
		parts = append(parts, "-pacing")
	}
	if cf.LadderOn {
		parts = append(parts, "-ladder")
	}
	if cf.Ladder.BackpressureWait != 0 {
		parts = append(parts, fmt.Sprintf("-bp-wait %s", cf.Ladder.BackpressureWait))
	}
	if cf.Ladder.EmergencyMinFree != 0 {
		parts = append(parts, fmt.Sprintf("-emergency-min %d", cf.Ladder.EmergencyMinFree))
	}
	if cf.Ladder.EmergencyAfter != 0 {
		parts = append(parts, fmt.Sprintf("-emergency-after %d", cf.Ladder.EmergencyAfter))
	}
	if cf.LocalCache != 0 {
		parts = append(parts, fmt.Sprintf("-localcache %d", cf.LocalCache))
	}
	if cf.FreeShards != 0 {
		parts = append(parts, fmt.Sprintf("-freeshards %d", cf.FreeShards))
	}
	if cf.CardBuffer != 0 {
		parts = append(parts, fmt.Sprintf("-cardbuf %d", cf.CardBuffer))
	}
	return strings.Join(parts, " ")
}

// ReportExit maps a run report onto the exit-code conventions: ExitWedge for
// a watchdog abort, ExitInvariant for an oracle failure, ExitOK otherwise.
// CLI-specific assertions (-min-ops, -require-faults) layer ExitInvariant on
// top; a hard -timeout layers ExitWedge.
func ReportExit(rep *Report) int {
	switch {
	case rep.Wedged:
		return ExitWedge
	case rep.LostObjects > 0 || len(rep.Violations) > 0:
		return ExitInvariant
	}
	return ExitOK
}
