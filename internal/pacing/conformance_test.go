package pacing

import (
	"math"
	"math/rand"
	"testing"
)

// policyCase builds one FormulaPolicy configuration over a fresh fakeHeap,
// for the conformance suite the pacer must pass whatever its parameters.
type policyCase struct {
	name  string
	build func(free, occupied int64) (*FormulaPolicy, *fakeHeap)
}

func policyCases() []policyCase {
	formula := Config{K0: 8, SmoothAlpha: 0.5, C: 2, Headroom: 50}
	return []policyCase{
		{"formula", func(free, occupied int64) (*FormulaPolicy, *fakeHeap) {
			h := &fakeHeap{free: free, occupied: occupied}
			return NewFormula(formula, h), h
		}},
	}
}

// TestPolicyKickoffMonotone: with the policy's other state fixed, shrinking
// free memory never turns a firing kickoff back off. A policy violating this
// could skip collection entirely while the heap drains.
func TestPolicyKickoffMonotone(t *testing.T) {
	for _, tc := range policyCases() {
		t.Run(tc.name, func(t *testing.T) {
			p, h := tc.build(1<<20, 4096)
			p.EndCycle(8000, 800) // prime the predictors
			fired := false
			for free := int64(1 << 20); free >= 0; free -= 1 << 12 {
				h.free = free
				k := p.Kickoff()
				if fired && !k {
					t.Fatalf("kickoff regressed from firing to not at free=%d", free)
				}
				fired = fired || k
			}
			if !fired {
				t.Fatal("kickoff never fired even at free=0")
			}
		})
	}
}

// TestPolicyBudgetNonNegative: budgets and rates must never go negative, for
// any allocation size, heap state or predictor history — a negative budget
// would credit the mutator with tracing work.
func TestPolicyBudgetNonNegative(t *testing.T) {
	for _, tc := range policyCases() {
		t.Run(tc.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			p, h := tc.build(1<<16, 1<<14)
			p.EndCycle(int64(rng.Intn(1<<14)), int64(rng.Intn(1<<10)))
			p.StartCycle()
			for i := 0; i < 500; i++ {
				h.free = int64(rng.Intn(1 << 17))
				h.occupied = int64(rng.Intn(1 << 15))
				alloc := int64(rng.Intn(1 << 10))
				if b := p.IncrementBudget(alloc); b.Words < 0 || b.K < 0 {
					t.Fatalf("IncrementBudget(%d) = %+v at free=%d", alloc, b, h.free)
				}
				if b := p.PressureBudget(alloc); b.Words < 0 || b.K < 0 {
					t.Fatalf("PressureBudget(%d) = %+v at free=%d", alloc, b, h.free)
				}
				if r := p.Rate(); r < 0 || math.IsNaN(r) {
					t.Fatalf("Rate() = %v", r)
				}
				if th := p.KickoffThreshold(); th < 0 || math.IsNaN(th) {
					t.Fatalf("KickoffThreshold() = %v", th)
				}
				p.NoteTraced(int64(rng.Intn(1 << 9)))
				if i%50 == 49 {
					p.EndIncrement(int64(rng.Intn(1 << 9)))
					p.EndCycle(int64(rng.Intn(1<<14)), int64(rng.Intn(1<<10)))
					p.StartCycle()
				}
			}
		})
	}
}

// TestPolicyDeterminism: two instances fed the identical seeded script must
// produce identical budgets — policies may keep smoothed state but not
// hidden randomness or wall-clock dependence.
func TestPolicyDeterminism(t *testing.T) {
	for _, tc := range policyCases() {
		t.Run(tc.name, func(t *testing.T) {
			run := func() []Budget {
				rng := rand.New(rand.NewSource(42))
				p, h := tc.build(1<<16, 1<<14)
				var out []Budget
				for cycle := 0; cycle < 5; cycle++ {
					p.StartCycle()
					for i := 0; i < 100; i++ {
						h.free = int64(1<<16 - rng.Intn(1<<15))
						out = append(out, p.IncrementBudget(int64(rng.Intn(256))))
						p.NoteTraced(int64(rng.Intn(512)))
						p.NoteBackgroundWork(int64(rng.Intn(128)))
						p.NoteAllocation(int64(rng.Intn(256)))
					}
					p.EndIncrement(int64(rng.Intn(512)))
					p.EndCycle(int64(rng.Intn(1<<14)), int64(rng.Intn(1<<10)))
				}
				return out
			}
			a, b := run(), run()
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("budget %d differs between identical runs: %+v vs %+v", i, a[i], b[i])
				}
			}
		})
	}
}
