package experiments

import (
	"io"
	"strings"
	"testing"
)

// The storm benchmark at test scale: its gate holds (the adversarial workload
// trips the backlog policy, shedding costs no wall time, and the controller
// never perturbs the write stream), the shed stays inside the policy's
// bounds, and the run is deterministic at any worker width.
func TestRunStormGates(t *testing.T) {
	if testing.Short() {
		t.Skip("storm benchmark is slow")
	}
	cfg := DefaultConfig()
	cfg.Scale = 0.05
	cfg.Workers = 2
	var buf strings.Builder
	b := RunStorm(cfg, &buf)

	if err := b.Gate(); err != nil {
		t.Fatalf("%v:\n%s", err, buf.String())
	}
	if b.BudgetEnd >= b.Budget {
		t.Fatalf("shed policy never reduced the budget: %d → %d", b.Budget, b.BudgetEnd)
	}
	if b.BudgetEnd < 128 {
		t.Fatalf("budget shed under the policy floor: %d", b.BudgetEnd)
	}
	if b.PendingClosed < b.PendingStatic {
		t.Errorf("closed arm shed reclaim but holds the smaller backlog: %d < %d",
			b.PendingClosed, b.PendingStatic)
	}
	if b.LastRecord == "" {
		t.Error("no fired actuation record in provenance ring")
	}

	// Determinism: the identical config reproduces the identical benchmark.
	b2 := RunStorm(cfg, io.Discard)
	if b2 != b {
		t.Fatalf("storm not deterministic:\n%+v\n%+v", b, b2)
	}

	// Worker-width invariance: the modeled walls and controller decisions
	// must not move with the experiment pool's width.
	cfg.Workers = 1
	if b1 := RunStorm(cfg, io.Discard); b1 != b {
		t.Fatalf("storm varies with worker count:\n%+v\n%+v", b, b1)
	}
}
