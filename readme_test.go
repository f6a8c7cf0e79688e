package sparsedysta

import (
	"flag"
	"os"
	"regexp"
	"strings"
	"testing"

	"sparsedysta/internal/exp"
)

// TestReadmeDocumentsEveryServingFlag keeps README's "Cluster flags
// (both CLIs)" table in step with exp.Options.RegisterFlags, the one
// place both CLIs declare their serving flags: every declared flag needs
// a row, and every row a declared flag.
func TestReadmeDocumentsEveryServingFlag(t *testing.T) {
	data, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(data), "Cluster flags (both CLIs):")
	if !ok {
		t.Fatal(`README.md has no "Cluster flags (both CLIs):" table`)
	}
	row := regexp.MustCompile("^\\| `-([a-z-]+)` \\|")
	rows := map[string]bool{}
	for _, line := range strings.Split(strings.TrimLeft(section, "\n"), "\n") {
		if !strings.HasPrefix(line, "|") {
			break
		}
		if m := row.FindStringSubmatch(line); m != nil {
			rows[m[1]] = true
		}
	}
	fs := flag.NewFlagSet("readme", flag.ContinueOnError)
	new(exp.Options).RegisterFlags(fs)
	declared := 0
	fs.VisitAll(func(f *flag.Flag) {
		declared++
		if !rows[f.Name] {
			t.Errorf("-%s has no row in README.md's cluster flags table", f.Name)
		}
		delete(rows, f.Name)
	})
	if declared == 0 {
		t.Fatal("RegisterFlags declares no flags")
	}
	for name := range rows {
		t.Errorf("README.md's cluster flags table documents -%s, which RegisterFlags does not declare", name)
	}
}
