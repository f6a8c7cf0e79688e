package workload

import (
	"fmt"
	"time"

	"sparsedysta/internal/rng"
	"sparsedysta/internal/trace"
	"sparsedysta/internal/traffic"
)

// Stream is the iterator form of Generate: it draws one request at a
// time from the scenario's sampling distribution and the configured
// traffic.Process, never materializing the stream. Generate itself is
// implemented by draining a Stream, so the two are byte-identical by
// construction — same seed, same per-request draw order (arrival gap,
// entry, trace index), same per-entry SLOs. Arrivals are monotone
// nondecreasing by construction (each gap is non-negative), which is
// what lets streaming consumers process requests without sorting.
//
// The stream owns one Request and rewrites it on every Next, so drawing
// a request allocates nothing.
type Stream struct {
	entries     []Entry
	cfg         GenConfig
	totalWeight float64
	// resolved[i] is entry i's state, resolved once so that Next
	// neither hashes nor interns a key.
	resolved []resolvedEntry
	proc     traffic.Process
	r        *rng.Source
	now      time.Duration
	next     int
	req      Request
}

// resolvedEntry is what a stream draws from for one entry.
type resolvedEntry struct {
	key trace.Key
	// traces are the entry's evaluation traces in the store.
	traces []trace.SampleTrace
	// slo is every request's SLO: the traces' mean isolated latency
	// times M_slo times the entry's SLO factor.
	slo time.Duration
}

// NewStream validates the configuration, resolves every entry's key,
// traces and SLO, and positions the iterator before the first request.
// An SLO that is not below 2^63 ns, the largest time.Duration, is an
// error naming the entry, M_slo and the SLO factor. The configured
// Process is Reset here, exactly as Generate resets it, so a stateful
// process can be reused across streams.
func NewStream(sc Scenario, store *trace.Store, cfg GenConfig) (*Stream, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	if len(sc.Entries) == 0 {
		return nil, fmt.Errorf("workload: scenario %q has no entries", sc.Name)
	}
	s := &Stream{
		entries:  sc.Entries,
		cfg:      cfg,
		resolved: make([]resolvedEntry, len(sc.Entries)),
		r:        rng.New(cfg.Seed),
	}
	for i, e := range sc.Entries {
		k := e.Key()
		traces := store.Get(k)
		if len(traces) == 0 {
			return nil, fmt.Errorf("workload: no traces for %v", k)
		}
		s.totalWeight += e.Weight
		meanIso := time.Duration(store.SumTotals(k) / float64(len(traces)))
		// The negated test also refuses a NaN factor.
		slo := float64(meanIso) * cfg.SLOMultiplier * e.sloFactor()
		if !(slo < 1<<63) {
			return nil, fmt.Errorf("workload: entry %d (%v): mean isolated latency %v x M_slo %g x SLO factor %g is not below 2^63 ns",
				i, k, meanIso, cfg.SLOMultiplier, e.sloFactor())
		}
		s.resolved[i] = resolvedEntry{key: k, traces: traces, slo: time.Duration(slo)}
	}

	s.proc = cfg.Process
	if s.proc == nil {
		s.proc = traffic.NewPoisson(cfg.RatePerSec)
	}
	s.proc.Reset()
	return s, nil
}

// Len returns the total stream length (GenConfig.Requests).
func (s *Stream) Len() int { return s.cfg.Requests }

// Next returns the next request, or (nil, false) once the stream is
// exhausted. The draw order per request — arrival gap, entry, trace
// index — is the bit-identity contract with Generate.
//
// The returned request is the stream's own and is valid only until the
// next call to Next, which overwrites it: a consumer copies whatever it
// keeps (the engine copies every field it needs into its Task). Its
// Trace points into the store, which outlives the stream.
func (s *Stream) Next() (*Request, bool) {
	if s.next >= s.cfg.Requests {
		return nil, false
	}
	s.now += s.proc.Next(s.r, s.now)
	i := sampleEntry(s.r, s.entries, s.totalWeight)
	e := &s.resolved[i]
	s.req = Request{
		ID:      s.next,
		Key:     e.key,
		Trace:   &e.traces[s.r.Intn(len(e.traces))],
		Arrival: s.now,
		SLO:     e.slo,
	}
	s.next++
	return &s.req, true
}
