package exp

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the golden artefacts under testdata/golden")

// TestGoldenArtifacts regenerates every golden artefact and compares it
// byte for byte with its committed rendering under testdata/golden, as
// `dysta-bench -out` writes it (no timing line). A change that moves an
// artefact on purpose rewrites the files with `go test ./internal/exp
// -run TestGoldenArtifacts -update`; a missing file fails the test, as
// does a file no registered experiment renders.
func TestGoldenArtifacts(t *testing.T) {
	// Every registered experiment renders at the quick protocol, and the
	// scheduling artefacts (Table 5, Figs. 12-15) also at the paper's.
	for _, p := range []struct {
		dir  string
		opts Options
		ids  []string
	}{
		{"quick", QuickOptions(), AllIDs()},
		{"full", DefaultOptions(), []string{"table5", "fig12", "fig13", "fig14", "fig15"}},
	} {
		dir := filepath.Join("testdata", "golden", p.dir)
		if *update {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
		}
		t.Run(p.dir, func(t *testing.T) {
			if p.dir == "full" && raceEnabled {
				t.Skip("the race detector slows the paper protocol ~10x; the quick protocol covers these ids")
			}
			for _, id := range p.ids {
				t.Run(id, func(t *testing.T) {
					runner, err := Lookup(id)
					if err != nil {
						t.Fatal(err)
					}
					arts, err := runner(p.opts)
					if err != nil {
						t.Fatal(err)
					}
					got := RenderAll(arts)
					path := filepath.Join(dir, id+".txt")
					if *update {
						if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
							t.Fatal(err)
						}
						return
					}
					want, err := os.ReadFile(path)
					if err != nil {
						t.Fatalf("no golden artefact for %s (rewrite with -update): %v", id, err)
					}
					if got != string(want) {
						t.Errorf("%s differs from %s (rewrite with -update if the change is intended):\n%s",
							id, path, firstDiff(string(want), got))
					}
				})
			}
		})
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if id := strings.TrimSuffix(e.Name(), ".txt"); !slices.Contains(p.ids, id) {
				t.Errorf("%s: no registered %s artefact renders it", filepath.Join(dir, e.Name()), p.dir)
			}
		}
	}
}

// firstDiff reports the first line where two renderings differ.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			return fmt.Sprintf("line %d:\n  want %q\n  got  %q", i+1, wl, gl)
		}
	}
	return "(no line differs)"
}
