package trace

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"sparsedysta/internal/sparsity"
)

// TestNewKeyInternsConcurrently: goroutines interning the same pairs at
// once get one handle per pair, distinct pairs get distinct handles and
// dense indexes, and every handle reads its pair back. Run it under
// -race.
func TestNewKeyInternsConcurrently(t *testing.T) {
	const workers, models = 8, 16
	patterns := sparsity.Patterns()
	got := make([][]Key, workers)
	var wg sync.WaitGroup
	for w := range got {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for m := 0; m < models; m++ {
				for _, p := range patterns {
					// Each worker walks the pairs in its own order, so
					// first uses race each other.
					mm := (m + w) % models
					got[w] = append(got[w], NewKey(fmt.Sprintf("concurrent-%d", mm), p))
				}
			}
		}(w)
	}
	wg.Wait()
	want := map[string]Key{}
	indexes := map[int]string{}
	for w := range got {
		for _, k := range got[w] {
			name := k.String()
			if prev, ok := want[name]; ok && prev != k {
				t.Fatalf("worker %d: two handles for %s", w, name)
			}
			want[name] = k
			if prev, ok := indexes[k.index()]; ok && prev != name {
				t.Fatalf("%s and %s share dense index %d", prev, name, k.index())
			}
			indexes[k.index()] = name
		}
	}
	if len(want) != models*len(patterns) {
		t.Fatalf("%d distinct keys, want %d", len(want), models*len(patterns))
	}
	for m := 0; m < models; m++ {
		for _, p := range patterns {
			name := fmt.Sprintf("concurrent-%d", m)
			k := NewKey(name, p)
			if k.Model() != name || k.Pattern() != p {
				t.Errorf("key reads back %q/%v, want %q/%v", k.Model(), k.Pattern(), name, p)
			}
			if k != want[k.String()] {
				t.Errorf("re-interning %v gave a new handle", k)
			}
		}
	}
}

// TestZeroKey: the zero Key stays usable. It is the interned form of the
// empty model under the Dense pattern, prints in the model/pattern form,
// and a store and a stats set hold it like any other key.
func TestZeroKey(t *testing.T) {
	var zero Key
	if zero != NewKey("", sparsity.Dense) {
		t.Error(`NewKey("", Dense) is not the zero Key`)
	}
	if zero.Model() != "" || zero.Pattern() != sparsity.Dense {
		t.Errorf("zero Key reads %q/%v", zero.Model(), zero.Pattern())
	}
	if got := zero.String(); got != "/dense" {
		t.Errorf("zero Key prints %q, want %q", got, "/dense")
	}
	if got := NewKey("", sparsity.ChannelWise); got == zero || got.String() != "/channel" {
		t.Errorf(`NewKey("", ChannelWise) = %v`, got)
	}
	if got := NewKey("resnet50", sparsity.RandomPointwise).String(); got != "resnet50/random" {
		t.Errorf("key prints %q, want %q", got, "resnet50/random")
	}

	s := NewStore()
	if s.Get(zero) != nil {
		t.Error("empty store returned traces for the zero Key")
	}
	tr := SampleTrace{LayerLatency: []time.Duration{3, 4}, LayerSparsity: []float64{0.5, 0.5}}
	s.Add(zero, []SampleTrace{tr})
	set, err := NewStatsSet(s)
	if err != nil {
		t.Fatal(err)
	}
	if st := set.Lookup(zero); st == nil || st.AvgTotal != 7 || st.Key != zero {
		t.Errorf("zero Key's stats %+v", st)
	}
	if keys := set.Keys(); len(keys) != 1 || keys[0] != zero {
		t.Errorf("stats set keys %v, want the zero Key", keys)
	}
}

// TestKeyInternedAfterStatsSetIsUnprofiled: a stats set indexes its
// entries by the keys' dense indexes, so a key interned after the set
// was built indexes past its end. It must read as unprofiled, as must a
// key interned before the set but never profiled.
func TestKeyInternedAfterStatsSetIsUnprofiled(t *testing.T) {
	model := "interned-after-" + t.Name()
	before := NewKey(model, sparsity.BlockNM)
	profiled := NewKey(model, sparsity.Dense)
	s := NewStore()
	s.Add(profiled, []SampleTrace{{LayerLatency: []time.Duration{5}, LayerSparsity: []float64{0}}})
	set, err := NewStatsSet(s)
	if err != nil {
		t.Fatal(err)
	}
	after := NewKey(model, sparsity.ChannelWise)
	if after.index() <= profiled.index() {
		t.Fatalf("key interned later has index %d, not above %d", after.index(), profiled.index())
	}
	if set.Lookup(profiled) == nil {
		t.Fatal("profiled key missing")
	}
	for _, k := range []Key{before, after} {
		if set.Lookup(k) != nil {
			t.Errorf("%v reads as profiled", k)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("MustLookup(%v) did not panic", k)
				}
			}()
			set.MustLookup(k)
		}()
	}
}
