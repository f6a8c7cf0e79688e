package trace

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"sparsedysta/internal/sparsity"
)

// FuzzReadCSV feeds arbitrary bytes to the runtime-info parser: it must
// reject or accept, never panic, and anything it accepts must re-serialize
// and re-parse to the same data (parse/print round trip).
func FuzzReadCSV(f *testing.F) {
	// Seed with a valid file, a truncation, and assorted corruptions.
	var buf bytes.Buffer
	k := NewKey("m", sparsity.Dense)
	_ = WriteCSV(&buf, k, []SampleTrace{{
		LayerLatency:  []time.Duration{100, 200},
		LayerSparsity: []float64{0.1, 0.9},
	}})
	valid := buf.String()
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add("model,pattern,sample,layer,latency_ns,sparsity\nm,dense,0,0,xx,0.5\n")
	f.Add("model,pattern,sample,layer,latency_ns,sparsity\nm,dense,1,0,100,0.5\n")
	f.Add("")
	f.Add("a,b\n1,2\n")

	f.Fuzz(func(t *testing.T, data string) {
		key, traces, err := ReadCSV(strings.NewReader(data))
		if err != nil {
			return
		}
		// Accepted input must round-trip exactly.
		var out bytes.Buffer
		if err := WriteCSV(&out, key, traces); err != nil {
			t.Fatalf("accepted data failed to re-serialize: %v", err)
		}
		key2, traces2, err := ReadCSV(&out)
		if err != nil {
			t.Fatalf("re-serialized data failed to parse: %v", err)
		}
		if key2 != key || len(traces2) != len(traces) {
			t.Fatalf("round trip changed shape: %v/%d vs %v/%d",
				key, len(traces), key2, len(traces2))
		}
		for i := range traces {
			for l := range traces[i].LayerLatency {
				if traces[i].LayerLatency[l] != traces2[i].LayerLatency[l] ||
					traces[i].LayerSparsity[l] != traces2[i].LayerSparsity[l] {
					t.Fatalf("round trip changed sample %d layer %d", i, l)
				}
			}
		}
	})
}
