// Package gospawn flags `go` statements outside the approved
// worker-pool sites. The repository's two sanctioned fan-outs —
// exp.(*Pipeline).runCells's cell workers, behind RunGrid and
// RunPointSeeds, and workload.BuildStores's per-entry builders — are
// engineered to be byte-identical to their sequential counterparts
// (per-cell seeds, commit-in-entry-order); an ad-hoc goroutine
// anywhere else is how scheduling nondeterminism sneaks into grids.
package gospawn

import (
	"go/ast"
	"strings"

	"sparsedysta/internal/analysis"
)

var Analyzer = &analysis.Analyzer{
	Name: "gospawn",
	Doc: "flags go statements outside the approved worker-pool sites " +
		"(exp.runCells, workload.BuildStores)",
	Run: run,
}

// Approved lists the functions allowed to spawn goroutines, as
// "import/path.Func" or "import/path.Receiver.Method". Tests point this
// at their own fixtures; the default covers the two deterministic
// worker pools.
var Approved = []string{
	"sparsedysta/internal/exp.Pipeline.runCells",
	"sparsedysta/internal/workload.BuildStores",
}

func run(pass *analysis.Pass) error {
	approved := make(map[string]bool, len(Approved))
	for _, site := range Approved {
		approved[site] = true
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			site := "package scope"
			if fd := pass.EnclosingFunc(gs); fd != nil {
				site = siteName(pass, fd)
				if approved[site] {
					return true
				}
			}
			if pass.Allowed(gs.Pos()) {
				return true
			}
			pass.Reportf(gs.Pos(), "go statement in %s, outside the approved worker-pool sites: "+
				"ad-hoc goroutines make schedules depend on goroutine timing; route the fan-out "+
				"through exp.RunGrid or workload.BuildStores, or annotate //dysta:allow gospawn <reason>",
				site)
			return true
		})
	}
	return nil
}

// siteName renders fd as "pkgpath.Func" or "pkgpath.Receiver.Method",
// with any pointer star dropped from the receiver.
func siteName(pass *analysis.Pass, fd *ast.FuncDecl) string {
	name := fd.Name.Name
	if fd.Recv != nil && len(fd.Recv.List) == 1 {
		recv := fd.Recv.List[0].Type
		if star, ok := recv.(*ast.StarExpr); ok {
			recv = star.X
		}
		if id, ok := recv.(*ast.Ident); ok {
			name = id.Name + "." + name
		} else if ix, ok := recv.(*ast.IndexExpr); ok {
			if id, ok := ix.X.(*ast.Ident); ok {
				name = id.Name + "." + name
			}
		}
	}
	path := strings.TrimSuffix(pass.Pkg.Path(), "/")
	return path + "." + name
}
