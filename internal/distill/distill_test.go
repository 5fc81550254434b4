package distill

import (
	"math"
	"path/filepath"
	"testing"
	"time"
)

func arm(cpuNs, completed int64, tput, p99 float64) Arm {
	return Arm{WallNs: int64(time.Second), CPUNs: cpuNs, Completed: completed, Throughput: tput, P99Ns: p99}
}

func TestNewRecordOverheads(t *testing.T) {
	// Real: 2000ns CPU/unit; baseline: 1000ns CPU/unit -> overhead 100%,
	// gc share 50%.
	real := arm(2000_000, 1000, 800, 5000)
	base := arm(1000_000, 1000, 1000, 2000)
	r := NewRecord("cell", real, base)
	if math.Abs(r.CPUOverhead-1.0) > 1e-9 {
		t.Fatalf("CPUOverhead = %v, want 1.0", r.CPUOverhead)
	}
	if math.Abs(r.GCCPUShare-0.5) > 1e-9 {
		t.Fatalf("GCCPUShare = %v, want 0.5", r.GCCPUShare)
	}
	if math.Abs(r.ThroughputLoss-0.2) > 1e-9 {
		t.Fatalf("ThroughputLoss = %v, want 0.2", r.ThroughputLoss)
	}
	if r.P99DeltaNs != 3000 {
		t.Fatalf("P99DeltaNs = %v, want 3000", r.P99DeltaNs)
	}
	if r.BaselineContaminated {
		t.Fatal("clean baseline flagged contaminated")
	}
}

func TestNewRecordContamination(t *testing.T) {
	real := arm(1, 1, 1, 1)
	base := arm(1, 1, 1, 1)
	base.Cycles = 1
	if r := NewRecord("a", real, base); !r.BaselineContaminated {
		t.Fatal("baseline with cycles not flagged")
	}
	base.Cycles = 0
	base.AllocFailed = 5
	if r := NewRecord("a", real, base); !r.BaselineContaminated {
		t.Fatal("baseline with allocation failures not flagged")
	}
}

func TestFillThroughput(t *testing.T) {
	a := Arm{WallNs: int64(2 * time.Second), Completed: 1000}
	a.FillThroughput()
	if a.Throughput != 500 {
		t.Fatalf("Throughput = %v, want 500", a.Throughput)
	}
}

func TestMarkFrontier(t *testing.T) {
	rec := func(name string, cpu, p99 float64, dirty bool) Record {
		r := Record{Name: name, CPUOverhead: cpu, BaselineContaminated: dirty}
		r.Real.P99Ns = p99
		return r
	}
	recs := []Record{
		rec("cheap-slow", 0.10, 9000, false),
		rec("mid", 0.20, 5000, false),
		rec("dominated", 0.30, 6000, false), // mid is better on both axes
		rec("fast-costly", 0.50, 1000, false),
		rec("dirty-best", 0.01, 100, true), // would dominate everything, but contaminated
	}
	MarkFrontier(recs)
	want := map[string]bool{"cheap-slow": true, "mid": true, "dominated": false, "fast-costly": true, "dirty-best": false}
	for _, r := range recs {
		if r.Frontier != want[r.Name] {
			t.Errorf("%s: frontier = %v, want %v (dominated by %q)", r.Name, r.Frontier, want[r.Name], r.DominatedBy)
		}
	}
	for _, r := range recs {
		if r.Name == "dominated" && r.DominatedBy != "mid" {
			t.Errorf("dominated cell names %q as dominator, want mid", r.DominatedBy)
		}
		if r.Name == "dirty-best" && r.DominatedBy != "" {
			t.Errorf("contaminated cell has DominatedBy %q; it must stay out of the relation", r.DominatedBy)
		}
	}
}

func TestMedianByName(t *testing.T) {
	rec := func(name string, cpu float64, dirty bool) Record {
		return Record{Name: name, CPUOverhead: cpu, BaselineContaminated: dirty}
	}
	recs := []Record{
		rec("a", 0.30, false),
		rec("b", 0.50, false),
		rec("a", 0.10, false),
		rec("a", 0.20, false),
		rec("c", 0.90, false),
		rec("c", 0.05, true), // contaminated rep must not be picked
	}
	got := MedianByName(recs)
	if len(got) != 3 {
		t.Fatalf("got %d cells, want 3", len(got))
	}
	if got[0].Name != "a" || got[1].Name != "b" || got[2].Name != "c" {
		t.Fatalf("order = %s,%s,%s; want first-appearance a,b,c", got[0].Name, got[1].Name, got[2].Name)
	}
	if got[0].CPUOverhead != 0.20 {
		t.Fatalf("a's median = %v, want 0.20", got[0].CPUOverhead)
	}
	if got[2].CPUOverhead != 0.90 || got[2].BaselineContaminated {
		t.Fatalf("c picked %+v; the clean rep must win", got[2])
	}
	// All-contaminated cells still yield a (flagged) representative.
	dirty := MedianByName([]Record{rec("d", 0.1, true), rec("d", 0.2, true)})
	if len(dirty) != 1 || !dirty[0].BaselineContaminated {
		t.Fatalf("all-dirty cell = %+v", dirty)
	}
}

func TestAppendReadRoundtrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cells.jsonl")
	a := NewRecord("a", arm(2000, 1, 10, 100), arm(1000, 1, 20, 50))
	b := NewRecord("b", arm(1500, 1, 15, 80), arm(1000, 1, 20, 50))
	for _, r := range []Record{a, b} {
		if err := r.AppendJSON(path); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ReadRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != "a" || got[1].Name != "b" {
		t.Fatalf("roundtrip = %+v", got)
	}
	if got[1].CPUOverhead != b.CPUOverhead {
		t.Fatalf("CPUOverhead lost in roundtrip: %v vs %v", got[1].CPUOverhead, b.CPUOverhead)
	}
}
