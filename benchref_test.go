package sparsedysta

import (
	"encoding/json"
	"os"
	"regexp"
	"testing"
)

// TestBenchReferenceCoversEveryWorkload keeps CI's benchmark gate whole.
// The gate runs `bench -compare .github/bench-reference.json,<fresh>`,
// which skips any workload or metric missing from either file, so a
// workload added to BENCHMARK.json without a regenerated reference, or a
// reference trimmed wrong, would silently drop out of the gate. Every
// declared workload must carry a result digest and allocation and byte
// medians that rest on at least three reps.
func TestBenchReferenceCoversEveryWorkload(t *testing.T) {
	var decl struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
	}
	var ref struct {
		Workloads map[string]struct {
			Digest  string `json:"digest"`
			Metrics map[string]struct {
				N int `json:"n"`
			} `json:"metrics"`
		} `json:"workloads"`
	}
	for path, v := range map[string]any{"BENCHMARK.json": &decl, ".github/bench-reference.json": &ref} {
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(data, v); err != nil {
			t.Fatalf("parsing %s: %v", path, err)
		}
	}
	if len(decl.Workloads) == 0 {
		t.Fatal("BENCHMARK.json declares no workloads")
	}
	digest := regexp.MustCompile(`^[0-9a-f]{16}$`)
	for _, w := range decl.Workloads {
		r, ok := ref.Workloads[w.Name]
		if !ok {
			t.Errorf("%s: missing from the reference", w.Name)
			continue
		}
		if !digest.MatchString(r.Digest) {
			t.Errorf("%s: digest %q is not 16 hex digits", w.Name, r.Digest)
		}
		for _, m := range []string{"allocs_per_req", "bytes_per_req"} {
			if s, ok := r.Metrics[m]; !ok {
				t.Errorf("%s: no %s summary", w.Name, m)
			} else if s.N < 3 {
				t.Errorf("%s: %s rests on %d reps, want at least 3", w.Name, m, s.N)
			}
		}
	}
}
