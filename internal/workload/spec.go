package workload

import (
	"encoding/json"
	"fmt"
	"io"

	"sparsedysta/internal/accel/eyeriss"
	"sparsedysta/internal/accel/sanger"
	"sparsedysta/internal/models"
	"sparsedysta/internal/sparsity"
)

// Spec is the serializable description of a benchmark scenario — the
// "public benchmark" artefact of the paper (§3): a named set of
// model-pattern entries plus the accelerator that serves them. Specs
// round-trip through JSON so scenario definitions can be shared,
// versioned and loaded by external tooling.
type Spec struct {
	Name string `json:"name"`
	// Accelerator is "eyeriss-v2" or "sanger".
	Accelerator string      `json:"accelerator"`
	Entries     []EntrySpec `json:"entries"`
}

// EntrySpec is the serializable form of Entry.
type EntrySpec struct {
	Model string `json:"model"`
	// Pattern is the sparsity-pattern short name (dense, random, nm,
	// channel).
	Pattern    string  `json:"pattern"`
	WeightRate float64 `json:"weight_rate,omitempty"`
	Weight     float64 `json:"weight"`
	SLOFactor  float64 `json:"slo_factor,omitempty"`
}

// ToSpec converts a Scenario into its serializable form.
func ToSpec(sc Scenario) Spec {
	spec := Spec{Name: sc.Name, Accelerator: sc.Accel.Name()}
	for _, e := range sc.Entries {
		spec.Entries = append(spec.Entries, EntrySpec{
			Model:      e.Model.Name,
			Pattern:    e.Pattern.String(),
			WeightRate: e.WeightRate,
			Weight:     e.Weight,
			SLOFactor:  e.SLOFactor,
		})
	}
	return spec
}

// Scenario materializes the spec: model names resolve through the zoo and
// the accelerator through its default configuration.
func (s Spec) Scenario() (Scenario, error) {
	sc := Scenario{Name: s.Name}
	switch s.Accelerator {
	case "eyeriss-v2":
		sc.Accel = eyeriss.NewDefault()
	case "sanger":
		sc.Accel = sanger.NewDefault()
	default:
		return Scenario{}, fmt.Errorf("workload: unknown accelerator %q", s.Accelerator)
	}
	if len(s.Entries) == 0 {
		return Scenario{}, fmt.Errorf("workload: spec %q has no entries", s.Name)
	}
	for i, es := range s.Entries {
		m, err := models.ByName(es.Model)
		if err != nil {
			return Scenario{}, fmt.Errorf("workload: entry %d: %w", i, err)
		}
		if m.Family != sc.Accel.Family() {
			return Scenario{}, fmt.Errorf("workload: entry %d: model %s (family %v) cannot run on %s",
				i, m.Name, m.Family, sc.Accel.Name())
		}
		p, err := sparsity.ParsePattern(es.Pattern)
		if err != nil {
			return Scenario{}, fmt.Errorf("workload: entry %d: %w", i, err)
		}
		if es.Weight <= 0 {
			return Scenario{}, fmt.Errorf("workload: entry %d: non-positive weight %v", i, es.Weight)
		}
		if es.WeightRate < 0 || es.WeightRate >= 1 {
			return Scenario{}, fmt.Errorf("workload: entry %d: weight rate %v out of [0,1)", i, es.WeightRate)
		}
		if !(es.SLOFactor >= 0) {
			return Scenario{}, fmt.Errorf("workload: entry %d: SLO factor %v, want >= 0 (0 means 1)", i, es.SLOFactor)
		}
		sc.Entries = append(sc.Entries, Entry{
			Model:      m,
			Pattern:    p,
			WeightRate: es.WeightRate,
			Weight:     es.Weight,
			SLOFactor:  es.SLOFactor,
		})
	}
	return sc, nil
}

// SaveSpec writes the spec as indented JSON.
func SaveSpec(w io.Writer, spec Spec) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(spec)
}

// LoadSpec parses a JSON spec and materializes the scenario.
func LoadSpec(r io.Reader) (Scenario, error) {
	var spec Spec
	if err := json.NewDecoder(r).Decode(&spec); err != nil {
		return Scenario{}, fmt.Errorf("workload: decoding spec: %w", err)
	}
	return spec.Scenario()
}
