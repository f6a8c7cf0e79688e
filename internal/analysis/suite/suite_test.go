package suite_test

import (
	"testing"

	"sparsedysta/internal/analysis/suite"
)

// names flattens the analyzers applying to path.
func names(path string) map[string]bool {
	out := map[string]bool{}
	for _, a := range suite.For(path) {
		out[a.Name] = true
	}
	return out
}

func TestScopes(t *testing.T) {
	cases := []struct {
		path string
		want []string
	}{
		// Deterministic packages get the full battery.
		{"sparsedysta/internal/sched", []string{"detrange", "floatorder", "wallclock", "seedrand", "gospawn"}},
		{"sparsedysta/internal/cluster", []string{"detrange", "floatorder", "wallclock", "seedrand", "gospawn"}},
		{"sparsedysta/internal/exp", []string{"detrange", "floatorder", "wallclock", "seedrand", "gospawn"}},
		{"sparsedysta/internal/workload", []string{"detrange", "floatorder", "wallclock", "seedrand", "gospawn"}},
		{"sparsedysta/internal/traffic", []string{"detrange", "floatorder", "wallclock", "seedrand", "gospawn"}},
		{"sparsedysta/internal/hwsched", []string{"detrange", "floatorder", "wallclock", "seedrand", "gospawn"}},
		// Supporting internal packages: virtual clock and module-wide
		// rules, but map order may be observed (their outputs feed
		// sorted merges).
		{"sparsedysta/internal/trace", []string{"wallclock", "seedrand", "gospawn"}},
		{"sparsedysta/internal/rng", []string{"wallclock", "seedrand", "gospawn"}},
		// CLIs and the root package own the process boundary: wall
		// time is fine there, seeded randomness and sanctioned fan-out
		// still are not.
		{"sparsedysta/cmd/dysta-sim", []string{"seedrand", "gospawn"}},
		{"sparsedysta", []string{"seedrand", "gospawn"}},
		// Foreign packages are out of scope however they are spelled.
		{"fmt", nil},
		{"github.com/other/mod", nil},
	}
	for _, c := range cases {
		got := names(c.path)
		if len(got) != len(c.want) {
			t.Errorf("For(%q) = %v, want %v", c.path, got, c.want)
			continue
		}
		for _, w := range c.want {
			if !got[w] {
				t.Errorf("For(%q) missing %s", c.path, w)
			}
		}
	}
}

// TestVariantSuffix pins that go vet's test-variant import paths
// ("pkg [pkg.test]") are held to the same rules as the package itself.
func TestVariantSuffix(t *testing.T) {
	plain := names("sparsedysta/internal/sched")
	variant := names("sparsedysta/internal/sched [sparsedysta/internal/sched.test]")
	if len(plain) != len(variant) {
		t.Fatalf("test variant scoped differently: %v vs %v", plain, variant)
	}
	for n := range plain {
		if !variant[n] {
			t.Errorf("test variant missing %s", n)
		}
	}
}
