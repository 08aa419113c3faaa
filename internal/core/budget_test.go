package core_test

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/minicc"
)

// TestBudgetNegativeUnlimited locks in the budget semantics: 0 selects the
// documented default and any negative value means unlimited.
func TestBudgetNegativeUnlimited(t *testing.T) {
	// 12 branches explode to 2^12 = 4096 paths: past the small positive
	// cap below but within the default step budget, so the unlimited-path
	// run completes without tripping anything.
	var sb strings.Builder
	sb.WriteString("int f(int a, int b) {\n\tint s = 0;\n")
	for i := 0; i < 12; i++ {
		fmt.Fprintf(&sb, "\tif (a > %d)\n\t\ts = s + 1;\n", i)
	}
	sb.WriteString("\treturn s;\n}\n")
	mod, err := minicc.LowerAll("m", map[string]string{"a.c": sb.String()})
	if err != nil {
		t.Fatal(err)
	}
	var base core.Config

	capped := base
	capped.MaxPathsPerEntry = 64
	cres := core.NewEngine(mod, capped).Run()
	if cres.Stats.Budgeted != 1 {
		t.Errorf("capped run not budgeted: %+v", cres.Stats)
	}

	unlimited := base
	unlimited.MaxPathsPerEntry = -1
	ures := core.NewEngine(mod, unlimited).Run()
	if ures.Stats.Budgeted != 0 {
		t.Errorf("unlimited run hit a budget: %+v", ures.Stats)
	}
	if ures.Stats.PathsExplored <= cres.Stats.PathsExplored {
		t.Errorf("unlimited run explored %d paths, capped run %d",
			ures.Stats.PathsExplored, cres.Stats.PathsExplored)
	}

	unlimitedSteps := base
	unlimitedSteps.MaxStepsPerEntry = -1
	unlimitedSteps.MaxPathsPerEntry = 1 << 20
	if res := core.NewEngine(mod, unlimitedSteps).Run(); res.Stats.Budgeted != 0 {
		t.Errorf("negative step budget not treated as unlimited: %+v", res.Stats)
	}
}
