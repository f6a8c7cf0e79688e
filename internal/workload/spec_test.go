package workload

import (
	"bytes"
	"strings"
	"testing"
)

func TestSpecRoundTrip(t *testing.T) {
	for _, sc := range []Scenario{MultiAttNN(), MultiCNN()} {
		spec := ToSpec(sc)
		var buf bytes.Buffer
		if err := SaveSpec(&buf, spec); err != nil {
			t.Fatal(err)
		}
		got, err := LoadSpec(&buf)
		if err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		if got.Name != sc.Name || got.Accel.Name() != sc.Accel.Name() {
			t.Errorf("%s: identity lost: %q on %q", sc.Name, got.Name, got.Accel.Name())
		}
		if len(got.Entries) != len(sc.Entries) {
			t.Fatalf("%s: %d entries, want %d", sc.Name, len(got.Entries), len(sc.Entries))
		}
		for i := range got.Entries {
			a, b := got.Entries[i], sc.Entries[i]
			if a.Model.Name != b.Model.Name || a.Pattern != b.Pattern ||
				a.WeightRate != b.WeightRate || a.Weight != b.Weight ||
				a.SLOFactor != b.SLOFactor {
				t.Errorf("%s entry %d differs: %+v vs %+v", sc.Name, i, a, b)
			}
		}
	}
}

func TestSpecSLOFactorSurvives(t *testing.T) {
	sc := MultiAttNN()
	sc.Entries[0].SLOFactor = 0.4
	var buf bytes.Buffer
	if err := SaveSpec(&buf, ToSpec(sc)); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSpec(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Entries[0].SLOFactor != 0.4 {
		t.Errorf("SLO factor lost: %v", got.Entries[0].SLOFactor)
	}
}

func TestLoadSpecErrors(t *testing.T) {
	cases := map[string]string{
		"bad json":        `{`,
		"unknown accel":   `{"name":"x","accelerator":"tpu","entries":[{"model":"bert","pattern":"dense","weight":1}]}`,
		"no entries":      `{"name":"x","accelerator":"sanger","entries":[]}`,
		"unknown model":   `{"name":"x","accelerator":"sanger","entries":[{"model":"gpt9","pattern":"dense","weight":1}]}`,
		"family mismatch": `{"name":"x","accelerator":"sanger","entries":[{"model":"vgg16","pattern":"dense","weight":1}]}`,
		"bad pattern":     `{"name":"x","accelerator":"sanger","entries":[{"model":"bert","pattern":"wavy","weight":1}]}`,
		"zero weight":     `{"name":"x","accelerator":"sanger","entries":[{"model":"bert","pattern":"dense","weight":0}]}`,
		"bad rate":        `{"name":"x","accelerator":"eyeriss-v2","entries":[{"model":"vgg16","pattern":"random","weight":1,"weight_rate":1.0}]}`,
		// A negative factor used to read as 1, like an absent one.
		"negative slo factor": `{"name":"x","accelerator":"sanger","entries":[{"model":"bert","pattern":"dense","weight":1,"slo_factor":-1}]}`,
	}
	for name, data := range cases {
		if _, err := LoadSpec(strings.NewReader(data)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestLoadedSpecGeneratesWorkload(t *testing.T) {
	spec := Spec{
		Name:        "custom",
		Accelerator: "sanger",
		Entries: []EntrySpec{
			{Model: "bert", Pattern: "dense", Weight: 1, SLOFactor: 0.5},
			{Model: "bart", Pattern: "dense", Weight: 2},
		},
	}
	var buf bytes.Buffer
	if err := SaveSpec(&buf, spec); err != nil {
		t.Fatal(err)
	}
	sc, err := LoadSpec(&buf)
	if err != nil {
		t.Fatal(err)
	}
	_, eval, err := BuildStores(sc, 5, 20, 1)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := Generate(sc, eval, GenConfig{Requests: 60, RatePerSec: 30, SLOMultiplier: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// BERT requests carry the tightened SLO (factor 0.5 of BART-scale
	// multipliers); both models appear.
	seen := map[string]bool{}
	for _, r := range reqs {
		seen[r.Key.Model()] = true
	}
	if !seen["bert"] || !seen["bart"] {
		t.Errorf("models missing from generated stream: %v", seen)
	}
}
