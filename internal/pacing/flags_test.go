package pacing

import (
	"flag"
	"io"
	"testing"
)

func newTestFlagSet() *flag.FlagSet {
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	return fs
}

func TestBindCanonicalNames(t *testing.T) {
	cfg := Default()
	fs := newTestFlagSet()
	Bind(fs, &cfg)
	err := fs.Parse([]string{
		"-k0", "6", "-kmax", "20", "-tracing-c", "2",
		"-smooth-alpha", "0.5", "-dirty-fraction", "0.1",
		"-kickoff-headroom", "1024", "-best-window", "2048",
	})
	if err != nil {
		t.Fatal(err)
	}
	if cfg.K0 != 6 || cfg.KMax != 20 || cfg.C != 2 || cfg.SmoothAlpha != 0.5 ||
		cfg.InitialDirtyFraction != 0.1 || cfg.Headroom != 1024 || cfg.BestWindow != 2048 {
		t.Errorf("flags did not parse into config: %+v", cfg)
	}
}

func TestBindDefaultsFromConfig(t *testing.T) {
	cfg := Default()
	cfg.K0 = 12 // caller defaults must become flag defaults
	fs := newTestFlagSet()
	Bind(fs, &cfg)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if cfg.K0 != 12 {
		t.Errorf("unparsed flag overwrote the caller's default: K0=%v", cfg.K0)
	}
}

func TestBindRateOnly(t *testing.T) {
	k0 := 8.0
	fs := newTestFlagSet()
	BindRate(fs, &k0)
	if err := fs.Parse([]string{"-k0", "3"}); err != nil {
		t.Fatal(err)
	}
	if k0 != 3 {
		t.Errorf("BindRate did not set k0: %v", k0)
	}
	if fs.Lookup("kmax") != nil {
		t.Error("BindRate registered the full vocabulary")
	}
}
