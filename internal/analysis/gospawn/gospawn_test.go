package gospawn_test

import (
	"testing"

	"sparsedysta/internal/analysis/analysistest"
	"sparsedysta/internal/analysis/gospawn"
)

func TestGospawn(t *testing.T) {
	saved := gospawn.Approved
	defer func() { gospawn.Approved = saved }()
	gospawn.Approved = append([]string{"gospawn.BuildAll", "gospawn.Pool.Run"}, saved...)

	analysistest.Run(t, "testdata", gospawn.Analyzer, "gospawn")
}

// TestDefaultApproved pins the production allowlist to the two
// deterministic worker pools; growing it is a determinism-contract
// change that should be made deliberately.
func TestDefaultApproved(t *testing.T) {
	want := map[string]bool{
		"sparsedysta/internal/exp.Pipeline.runCells": true,
		"sparsedysta/internal/workload.BuildStores":  true,
	}
	if len(gospawn.Approved) != len(want) {
		t.Fatalf("Approved = %v, want the two deterministic worker pools", gospawn.Approved)
	}
	for _, site := range gospawn.Approved {
		if !want[site] {
			t.Errorf("unexpected approved site %q", site)
		}
	}
}
