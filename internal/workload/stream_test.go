package workload

import (
	"testing"
	"time"
	"unsafe"

	"sparsedysta/internal/trace"
	"sparsedysta/internal/traffic"
)

// TestRequestSize pins a request at 40 bytes, its key at one word: a
// materialized stream (bench's serving-control holds 200k) pays for every
// byte a request carries.
func TestRequestSize(t *testing.T) {
	if got := unsafe.Sizeof(Request{}); got != 40 {
		t.Errorf("workload.Request is %d bytes, want 40", got)
	}
	if got := unsafe.Sizeof(trace.Key{}); got != 8 {
		t.Errorf("trace.Key is %d bytes, want 8", got)
	}
}

// TestNewStreamAllocations: a stream resolves each entry's key, traces
// and SLO base into one slice, so opening one allocates the stream, that
// slice, its random source and its Poisson process, and nothing per
// entry.
func TestNewStreamAllocations(t *testing.T) {
	sc := MultiCNN()
	_, eval, err := BuildStores(sc, 2, 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfg := GenConfig{Requests: 10, RatePerSec: 3, SLOMultiplier: 10, Seed: 1}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := NewStream(sc, eval, cfg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Errorf("NewStream over %d entries made %v allocations, want at most 4", len(sc.Entries), allocs)
	}
}

// TestStreamMatchesGenerate pins the bit-identity contract between the
// iterator and the materialized path, for the default inline Poisson
// and for an explicit bursty process.
func TestStreamMatchesGenerate(t *testing.T) {
	sc := MultiAttNN()
	_, eval, err := BuildStores(sc, 10, 40, 1)
	if err != nil {
		t.Fatal(err)
	}
	cfgs := []GenConfig{
		{Requests: 200, RatePerSec: 30, SLOMultiplier: 10, Seed: 7},
		{Requests: 200, RatePerSec: 30, SLOMultiplier: 10, Seed: 7,
			Process: traffic.Bursty(30, 8, 0.2, 100*time.Millisecond)},
	}
	for ci, cfg := range cfgs {
		reqs, err := Generate(sc, eval, cfg)
		if err != nil {
			t.Fatal(err)
		}
		st, err := NewStream(sc, eval, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if st.Len() != len(reqs) {
			t.Fatalf("cfg %d: stream length %d != %d generated", ci, st.Len(), len(reqs))
		}
		var prev time.Duration
		for i := 0; ; i++ {
			got, ok := st.Next()
			if !ok {
				if i != len(reqs) {
					t.Fatalf("cfg %d: stream ended after %d of %d requests", ci, i, len(reqs))
				}
				break
			}
			want := reqs[i]
			if got.ID != want.ID || got.Key != want.Key || got.Arrival != want.Arrival ||
				got.SLO != want.SLO || &got.Trace.LayerLatency[0] != &want.Trace.LayerLatency[0] {
				t.Fatalf("cfg %d: request %d diverged: stream %+v vs generate %+v", ci, i, got, want)
			}
			if got.Arrival < prev {
				t.Fatalf("cfg %d: arrivals not monotone at request %d", ci, i)
			}
			prev = got.Arrival
		}
		if _, ok := st.Next(); ok {
			t.Fatalf("cfg %d: exhausted stream yielded another request", ci)
		}
	}
}
