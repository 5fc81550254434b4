package pacing

import "flag"

// This file is the shared command-line vocabulary for the Section 3
// parameters: every command that exposes pacing knobs (gcsim, gcbench,
// gcstress, gcserve) binds the same flag names onto a Config, so a -k0
// means the same thing everywhere.

// Bind registers the canonical pacing vocabulary on fs, parsing into cfg;
// cfg's current values become the flag defaults.
func Bind(fs *flag.FlagSet, cfg *Config) {
	BindRate(fs, &cfg.K0)
	fs.Float64Var(&cfg.KMax, "kmax", cfg.KMax, "cap on the adaptive tracing rate (0 = 2*K0)")
	fs.Float64Var(&cfg.C, "tracing-c", cfg.C, "corrective coefficient: the rate used is K+(K-K0)*C when tracing is behind schedule")
	fs.Float64Var(&cfg.SmoothAlpha, "smooth-alpha", cfg.SmoothAlpha, "exponential smoothing factor for the L, M and Best predictors")
	fs.Float64Var(&cfg.InitialDirtyFraction, "dirty-fraction", cfg.InitialDirtyFraction, "seed for the dirty-card predictor M before any cycle history")
	fs.Int64Var(&cfg.Headroom, "kickoff-headroom", cfg.Headroom, "words added to the kickoff threshold: start (and aim to finish) tracing this early")
	fs.Int64Var(&cfg.BestWindow, "best-window", cfg.BestWindow, "allocation window for sampling the background tracing rate Best (0 = backend default)")
	fs.Float64Var(&cfg.PressureTaxFactor, "pressure-tax", cfg.PressureTaxFactor, "tracing-rate multiplier for allocators blocked on backpressure (0 = default 2.0)")
}

// BindRate registers only the tracing-rate flag -k0, for commands whose
// remaining pacing parameters are fixed by experiment definitions.
func BindRate(fs *flag.FlagSet, k0 *float64) {
	fs.Float64Var(k0, "k0", *k0, "desired tracing rate K0: words traced per word allocated")
}
