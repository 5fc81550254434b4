package main

import (
	"bytes"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"mcgc/internal/runmeta"
	"mcgc/internal/telemetry"
)

// profLayers are the layers whose share of CPU-profile self time the traced
// run reports (prof.<layer>). Everything else lands in prof.other.
var profLayers = []string{"live", "server", "workpack", "cardtable", "bitvec",
	"heapsim", "core", "machine", "workload", "runtime", "bench", "other"}

// layerOf maps a fully qualified function name to its profLayers entry.
func layerOf(fn string) string {
	slash := strings.LastIndex(fn, "/")
	pkg := fn
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	switch {
	case pkg == "main" || pkg == "mcgc/perfbench": // the binary, or its test
		return "bench"
	case pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/"):
		return "runtime"
	case strings.HasPrefix(pkg, "mcgc/internal/"):
		name := strings.TrimPrefix(pkg, "mcgc/internal/")
		for _, l := range profLayers {
			if l == name {
				return l
			}
		}
	}
	return "other"
}

// profileShares reduces a gzipped pprof CPU profile to each layer's share of
// self time (the leaf frame of every sample). It decodes just the parts of
// profile.proto it needs, so the benchmark stays standard-library only.
func profileShares(gz []byte) (map[string]float64, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct {
		leaf uint64
		v    int64
	}
	var (
		samples  []sample
		locFunc  = map[uint64]uint64{} // location id -> leaf function id
		funcName = map[uint64]int64{}  // function id -> string table index
		strs     []string
	)
	err = pbFields(data, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s sample
			var vals []int64
			err := pbFields(b, func(f int, v uint64, bb []byte) error {
				switch f {
				case 1:
					ids := pbVarints(v, bb)
					if len(ids) > 0 && s.leaf == 0 {
						s.leaf = ids[0]
					}
				case 2:
					for _, x := range pbVarints(v, bb) {
						vals = append(vals, int64(x))
					}
				}
				return nil
			})
			if len(vals) > 0 {
				s.v = vals[len(vals)-1]
			}
			samples = append(samples, s)
			return err
		case 4: // Location
			var id, fn uint64
			err := pbFields(b, func(f int, v uint64, bb []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line: the first entry is the innermost inlined frame
					if fn == 0 {
						return pbFields(bb, func(lf int, lv uint64, _ []byte) error {
							if lf == 1 {
								fn = lv
							}
							return nil
						})
					}
				}
				return nil
			})
			locFunc[id] = fn
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := pbFields(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	shares := make(map[string]float64, len(profLayers))
	for _, l := range profLayers {
		shares[l] = 0
	}
	var total float64
	for _, s := range samples {
		name := ""
		if idx, ok := funcName[locFunc[s.leaf]]; ok && idx >= 0 && int(idx) < len(strs) {
			name = strs[idx]
		}
		shares[layerOf(name)] += float64(s.v)
		total += float64(s.v)
	}
	if total > 0 {
		for l := range shares {
			shares[l] /= total
		}
	}
	return shares, nil
}

// pbFields walks one protobuf message, calling f with each field's number
// and either its varint value (v) or its length-delimited payload (b).
func pbFields(data []byte, f func(field int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := pbVarint(data)
		if n <= 0 {
			return fmt.Errorf("profile: bad field key")
		}
		data = data[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = pbVarint(data)
			if n <= 0 {
				return fmt.Errorf("profile: bad varint")
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return fmt.Errorf("profile: short fixed64")
			}
			data = data[8:]
		case 2:
			l, n := pbVarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return fmt.Errorf("profile: bad length")
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return fmt.Errorf("profile: short fixed32")
			}
			data = data[4:]
		default:
			return fmt.Errorf("profile: wire type %d", wire)
		}
		if err := f(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

// pbVarints returns a repeated varint field's values, packed (b) or not (v).
func pbVarints(v uint64, b []byte) []uint64 {
	if b == nil {
		return []uint64{v}
	}
	var out []uint64
	for len(b) > 0 {
		x, n := pbVarint(b)
		if n <= 0 {
			break
		}
		out = append(out, x)
		b = b[n:]
	}
	return out
}

func pbVarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * uint(i))
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// spanMeans exports the timeline of a traced engine run and returns the mean
// duration in milliseconds of each named GC-track span.
func spanMeans(col *telemetry.Collector, names ...string) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := col.WriteTrace(&buf, runmeta.Suite{Scale: "perfbench", J: 1}); err != nil {
		return nil, fmt.Errorf("trace export: %w", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			Dur  float64 `json:"dur"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		return nil, fmt.Errorf("trace parse: %w", err)
	}
	sum := map[string]float64{}
	cnt := map[string]float64{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			sum[ev.Name] += ev.Dur
			cnt[ev.Name]++
		}
	}
	out := map[string]float64{}
	for _, n := range names {
		if cnt[n] > 0 {
			out[n] = sum[n] / cnt[n] / 1e3 // µs -> ms
		} else {
			out[n] = 0
		}
	}
	return out, nil
}

// cpuTimes is the host's aggregate CPU time from /proc/stat, in ticks.
type cpuTimes struct{ total, steal uint64 }

func readCPUTimes() (cpuTimes, bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}, false
	}
	var t cpuTimes
	for i, s := range f[1:9] { // user nice system idle iowait irq softirq steal
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return cpuTimes{}, false
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t, true
}

// stealPct is the host's CPU steal over an interval, in percent; 0 when
// /proc/stat is unavailable.
func stealPct(a, b cpuTimes) float64 {
	if b.total <= a.total {
		return 0
	}
	return 100 * float64(b.steal-a.steal) / float64(b.total-a.total)
}

// clockCostNs measures the cost of one time.Now call: the median over 31
// batches of 1000 calls.
func clockCostNs() float64 {
	const batch = 1000
	var per []float64
	for i := 0; i < 31; i++ {
		t0 := time.Now()
		for j := 0; j < batch; j++ {
			_ = time.Now()
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/batch)
	}
	sort.Float64s(per)
	return per[len(per)/2]
}

// commit returns the VCS revision stamped into the binary, or "unknown"
// when it was built outside a repository.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// maxRSSMB is the process's peak resident set size in MiB.
func maxRSSMB() float64 {
	return float64(maxRSSKB()) / 1024
}

// hostContext is the part of the run context that does not depend on the
// workload.
func hostContext() map[string]any {
	return map[string]any{
		"commit":     commit(),
		"go":         runtime.Version(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
	}
}
