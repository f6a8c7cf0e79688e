package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"time"

	"sparsedysta/internal/sparsity"
)

// CSV layout, mirroring the paper's "save as files" step (Fig. 7): one row
// per (sample, layer) with columns
//
//	model, pattern, sample, layer, latency_ns, sparsity
//
// A header row is written first. Rows must be grouped by sample and
// ordered by layer, which is how WriteCSV emits them.

var csvHeader = []string{"model", "pattern", "sample", "layer", "latency_ns", "sparsity"}

// WriteCSV writes the traces of one model-pattern pair.
func WriteCSV(w io.Writer, k Key, traces []SampleTrace) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return fmt.Errorf("trace: writing header: %w", err)
	}
	for i, tr := range traces {
		for l := range tr.LayerLatency {
			rec := []string{
				k.Model(),
				k.Pattern().String(),
				strconv.Itoa(i),
				strconv.Itoa(l),
				strconv.FormatInt(int64(tr.LayerLatency[l]), 10),
				strconv.FormatFloat(tr.LayerSparsity[l], 'g', -1, 64),
			}
			if err := cw.Write(rec); err != nil {
				return fmt.Errorf("trace: writing sample %d layer %d: %w", i, l, err)
			}
		}
	}
	cw.Flush()
	return cw.Error()
}

// ReadCSV parses a file written by WriteCSV, returning its key and its
// traces, each keyed by it. A negative latency or a sparsity outside
// [0, 1] (NaN included) is an error naming its sample and layer.
func ReadCSV(r io.Reader) (Key, []SampleTrace, error) {
	cr := csv.NewReader(r)
	cr.FieldsPerRecord = len(csvHeader)
	header, err := cr.Read()
	if err != nil {
		return Key{}, nil, fmt.Errorf("trace: reading header: %w", err)
	}
	for i, want := range csvHeader {
		if header[i] != want {
			return Key{}, nil, fmt.Errorf("trace: header column %d is %q, want %q", i, header[i], want)
		}
	}

	// The file's pair comes from its first row and is interned once the
	// whole file parsed, so a rejected file interns nothing.
	var pair keyPair
	var traces []SampleTrace
	cur := -1
	for {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return Key{}, nil, fmt.Errorf("trace: reading row: %w", err)
		}
		pat, err := sparsity.ParsePattern(rec[1])
		if err != nil {
			return Key{}, nil, err
		}
		rowPair := keyPair{rec[0], pat}
		if cur == -1 {
			pair = rowPair
		} else if rowPair != pair {
			return Key{}, nil, fmt.Errorf("trace: mixed keys in one file: %s/%v and %s/%v",
				pair.model, pair.pattern, rowPair.model, rowPair.pattern)
		}
		sample, err := strconv.Atoi(rec[2])
		if err != nil {
			return Key{}, nil, fmt.Errorf("trace: bad sample index %q: %w", rec[2], err)
		}
		layer, err := strconv.Atoi(rec[3])
		if err != nil {
			return Key{}, nil, fmt.Errorf("trace: bad layer index %q: %w", rec[3], err)
		}
		latNS, err := strconv.ParseInt(rec[4], 10, 64)
		if err != nil {
			return Key{}, nil, fmt.Errorf("trace: bad latency %q: %w", rec[4], err)
		}
		sp, err := strconv.ParseFloat(rec[5], 64)
		if err != nil {
			return Key{}, nil, fmt.Errorf("trace: bad sparsity %q: %w", rec[5], err)
		}
		if latNS < 0 {
			return Key{}, nil, fmt.Errorf("trace: sample %d layer %d: negative latency %d ns", sample, layer, latNS)
		}
		// The negated test also rejects NaN, which fails every comparison.
		if !(sp >= 0 && sp <= 1) {
			return Key{}, nil, fmt.Errorf("trace: sample %d layer %d: sparsity %v outside [0, 1]", sample, layer, sp)
		}

		switch {
		case sample == cur+1 && layer == 0:
			traces = append(traces, SampleTrace{})
			cur = sample
		case sample == cur && layer == len(traces[cur].LayerLatency):
			// next layer of the current sample
		default:
			return Key{}, nil, fmt.Errorf("trace: row out of order: sample %d layer %d after sample %d",
				sample, layer, cur)
		}
		tr := &traces[cur]
		tr.LayerLatency = append(tr.LayerLatency, time.Duration(latNS))
		tr.LayerSparsity = append(tr.LayerSparsity, sp)
	}
	if cur == -1 {
		return Key{}, nil, fmt.Errorf("trace: file has no data rows")
	}
	k := NewKey(pair.model, pair.pattern)
	for i := range traces {
		traces[i].Key = k
	}
	return k, traces, nil
}
