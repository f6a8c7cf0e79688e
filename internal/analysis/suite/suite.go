// Package suite binds the dysta-lint analyzers to the import paths
// whose determinism contract each one guards. Both drivers — the
// standalone walker and the `go vet -vettool` unit checker in
// cmd/dysta-lint — consult the same table, so a package is held to
// identical rules however the linter is invoked.
package suite

import (
	"strings"

	"sparsedysta/internal/analysis"
	"sparsedysta/internal/analysis/detrange"
	"sparsedysta/internal/analysis/floatorder"
	"sparsedysta/internal/analysis/gospawn"
	"sparsedysta/internal/analysis/seedrand"
	"sparsedysta/internal/analysis/wallclock"
)

// Module is the import path of the module the suite polices.
const Module = "sparsedysta"

// deterministic lists the packages whose outputs must be bit-identical
// across processes: the event-loop core, the cluster layered on it, the
// experiment grids, and the stochastic-input generators.
var deterministic = map[string]bool{
	Module + "/internal/sched":    true,
	Module + "/internal/cluster":  true,
	Module + "/internal/exp":      true,
	Module + "/internal/workload": true,
	Module + "/internal/traffic":  true,
	Module + "/internal/hwsched":  true,
}

// A Rule pairs an analyzer with the predicate deciding which packages
// it runs on.
type Rule struct {
	Analyzer *analysis.Analyzer
	Scope    func(pkgPath string) bool
}

// Rules returns the full suite in a fixed order.
func Rules() []Rule {
	inModule := func(p string) bool {
		return p == Module || strings.HasPrefix(p, Module+"/")
	}
	internal := func(p string) bool {
		return strings.HasPrefix(p, Module+"/internal/")
	}
	det := func(p string) bool { return deterministic[p] }
	return []Rule{
		// Map order and float order are hazards only where bit-identity
		// is the contract.
		{detrange.Analyzer, det},
		{floatorder.Analyzer, det},
		// The virtual clock governs every internal package; cmd/ and
		// the root package's benchmarks own the process boundary where
		// wall time is fine.
		{wallclock.Analyzer, internal},
		// Seeded randomness and sanctioned fan-out are module-wide
		// rules: a CLI drawing from math/rand would already poison
		// reproducibility at the flag-parsing layer.
		{seedrand.Analyzer, inModule},
		{gospawn.Analyzer, inModule},
	}
}

// For returns the analyzers that apply to pkgPath. The path may carry a
// test-variant suffix ("pkg [pkg.test]") as produced by go vet; the
// variant is held to the same rules as the package it shadows.
func For(pkgPath string) []*analysis.Analyzer {
	if i := strings.Index(pkgPath, " ["); i >= 0 {
		pkgPath = pkgPath[:i]
	}
	var as []*analysis.Analyzer
	for _, r := range Rules() {
		if r.Scope(pkgPath) {
			as = append(as, r.Analyzer)
		}
	}
	return as
}
