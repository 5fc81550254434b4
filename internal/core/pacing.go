package core

import (
	"mcgc/internal/heapsim"
	"mcgc/internal/pacing"
)

// The Section 3 pacing machinery lives in the backend-neutral
// internal/pacing package; this file is the simulator backend's thin
// adapter onto it. The simulator's pacing "word" is one byte of simulated
// heap, so the configuration and every pacer call are in bytes here.

// PacingConfig holds the Section 3 tuning parameters (see pacing.Config;
// word-valued fields are heap bytes for this backend).
type PacingConfig = pacing.Config

// DefaultPacing returns the configuration used in the paper's default runs.
func DefaultPacing() PacingConfig { return pacing.Default() }

// heapBytesView feeds the simulated heap's free/occupied bytes to the
// pacer: the narrow HeapView the formulas sample at every decision point.
type heapBytesView struct{ h *heapsim.Heap }

func (v heapBytesView) FreeWords() int64     { return v.h.FreeBytes() }
func (v heapBytesView) OccupiedWords() int64 { return v.h.OccupiedBytes() }

// newPacer builds the shared formula policy over the simulated heap; the
// live engine drives the same FormulaPolicy over its arena.
func newPacer(cfg PacingConfig, h *heapsim.Heap) *pacing.FormulaPolicy {
	return pacing.NewFormula(cfg, heapBytesView{h})
}
