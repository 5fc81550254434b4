package live

import (
	"strings"
	"testing"
	"time"

	"mcgc/internal/pacing"
)

func TestValidateErrors(t *testing.T) {
	base := func() Config {
		return Config{Objects: 1 << 12, Mutators: 2, Tracers: 1, Duration: 100 * time.Millisecond}
	}
	cases := []struct {
		name  string
		mut   func(*Config)
		field string // substring every message must carry
	}{
		{"negative objects", func(c *Config) { c.Objects = -1 }, "Objects"},
		{"negative refs", func(c *Config) { c.RefsPerObject = -2 }, "RefsPerObject"},
		{"negative mutators", func(c *Config) { c.Mutators = -1 }, "Mutators"},
		{"negative tracers", func(c *Config) { c.Tracers = -3 }, "Tracers"},
		{"negative duration", func(c *Config) { c.Duration = -time.Second }, "Duration"},
		{"pacing k0", func(c *Config) { c.Pacing = &pacing.Config{K0: -1} }, "Pacing.K0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := base()
			tc.mut(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatal("Validate accepted an invalid config")
			}
			if !strings.Contains(err.Error(), "live: config: "+tc.field) {
				t.Fatalf("error %q does not name %s in the shared vocabulary", err, tc.field)
			}
		})
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
}

func TestValidateJoinsAllProblems(t *testing.T) {
	cfg := Config{Objects: -1, Mutators: -1, Tracers: 1, Duration: time.Millisecond}
	err := cfg.Validate()
	if err == nil {
		t.Fatal("no error")
	}
	for _, field := range []string{"Objects", "Mutators"} {
		if !strings.Contains(err.Error(), field) {
			t.Fatalf("joined error %q missing %s", err, field)
		}
	}
}

func TestConfigConstructors(t *testing.T) {
	pc := pacing.Config{K0: 6}
	plan := (*Config)(nil) // placeholder to keep the imports honest
	_ = plan
	cfg := Config{Objects: 1 << 10, Mutators: 1, Tracers: 1, Duration: time.Millisecond}.
		WithSharding(4, 2, 16).
		WithFormulaPacing(pc).
		WithLadder(LadderConfig{Enabled: true, EmergencyAfter: 3})
	if cfg.LocalCache != 4 || cfg.FreeShards != 2 || cfg.CardBuffer != 16 {
		t.Fatalf("sharding options not applied: %+v", cfg.ShardingOptions)
	}
	if cfg.Pacing == nil || cfg.Pacing.K0 != 6 {
		t.Fatalf("formula pacing not applied: %+v", cfg.PacingOptions)
	}
	if !cfg.Ladder.Enabled || cfg.Ladder.EmergencyAfter != 3 {
		t.Fatalf("ladder options not applied: %+v", cfg.LadderOptions)
	}
	// Field promotion must keep the flat spellings working: these are the
	// compatibility guarantees the option-struct refactor preserves.
	cfg.LocalCache = 8
	if cfg.ShardingOptions.LocalCache != 8 {
		t.Fatal("flat field write did not reach the embedded struct")
	}
}

func TestNewEnginePanicsOnInvalidConfig(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("NewEngine accepted an invalid config")
		}
		if !strings.Contains(r.(error).Error(), "live: config: Objects") {
			t.Fatalf("panic %v does not use the config error vocabulary", r)
		}
	}()
	NewEngine(Config{Objects: -5, Mutators: 1, Tracers: 1, Duration: time.Millisecond})
}

// TestDisableCollectionRun: with collection disabled the engine runs the
// mutators against a static arena — no cycles, no pauses, no policy — which
// is exactly the distillation baseline's contract.
func TestDisableCollectionRun(t *testing.T) {
	cfg := Config{
		Objects:  1 << 14, // big enough that the mutators don't exhaust it in 200ms
		Mutators: 2,
		Tracers:  1,
		Duration: 200 * time.Millisecond,
		Seed:     7,
	}
	cfg.PacingOptions = PacingOptions{DisableCollection: true}
	e := NewEngine(cfg)
	if e.pacer != nil {
		t.Fatal("collection-disabled engine built a pacer")
	}
	rep := e.Run()
	if rep.Cycles != 0 {
		t.Fatalf("collection-disabled run collected %d cycles", rep.Cycles)
	}
	if rep.STWCount != 0 {
		t.Fatalf("collection-disabled run paused %d times", rep.STWCount)
	}
	if rep.PacingEnabled {
		t.Fatal("collection-disabled run reports pacing enabled")
	}
	if rep.MutatorOps == 0 {
		t.Fatal("mutators made no progress")
	}
}
