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
	// poisson is the process a nil GenConfig.Process draws through,
	// held inline, as the source is, so that Reset allocates nothing.
	poisson traffic.Poisson
	r       rng.Source
	now     time.Duration
	next    int
	req     Request
}

// resolvedEntry is what a stream draws from for one entry.
type resolvedEntry struct {
	// traces are the entry's evaluation traces in the store, each
	// stamped with the entry's key.
	traces []trace.SampleTrace
	// slo is every request's SLO: the traces' mean isolated latency
	// times M_slo times the entry's SLO factor.
	slo time.Duration
}

// NewStream validates the configuration, resolves every entry's key,
// traces and SLO, and positions the iterator before the first request:
// it is Reset run on a new Stream.
func NewStream(sc Scenario, store *trace.Store, cfg GenConfig) (*Stream, error) {
	s := new(Stream)
	if err := s.Reset(sc, store, cfg); err != nil {
		return nil, err
	}
	return s, nil
}

// Reset re-arms the stream in place to draw cfg's requests from sc and
// store, exactly as a new stream would: it validates the configuration,
// resolves every entry's key, traces and SLO, and positions the iterator
// before the first request. It keeps the stream's resolved-entry
// storage, so re-arming a stream over no more entries than before
// allocates nothing.
//
// An SLO that is not below 2^63 ns, the largest time.Duration, is an
// error naming the entry, M_slo and the SLO factor (a NaN or infinite
// factor fails here); so is an entry Entry.check refuses, one without a
// model, a weight that is not finite and positive or a negative factor.
// A stream whose Reset failed is empty. The configured Process is Reset
// here, exactly as Generate resets it, so a stateful process can be
// reused across streams.
func (s *Stream) Reset(sc Scenario, store *trace.Store, cfg GenConfig) error {
	*s = Stream{resolved: s.resolved[:0]}
	if err := cfg.validate(); err != nil {
		return err
	}
	if len(sc.Entries) == 0 {
		return fmt.Errorf("workload: scenario %q has no entries", sc.Name)
	}
	if cap(s.resolved) < len(sc.Entries) {
		s.resolved = make([]resolvedEntry, 0, len(sc.Entries))
	}
	for i, e := range sc.Entries {
		if e.Model == nil {
			return errNilModel(i)
		}
		k := e.Key()
		traces := store.Get(k)
		if len(traces) == 0 {
			return fmt.Errorf("workload: no traces for %v", k)
		}
		s.totalWeight += e.Weight
		meanIso := time.Duration(store.SumTotals(k) / float64(len(traces)))
		// The negated test also refuses a NaN factor.
		slo := float64(meanIso) * cfg.SLOMultiplier * e.sloFactor()
		if !(slo < 1<<63) {
			return fmt.Errorf("workload: entry %d (%v): mean isolated latency %v x M_slo %g x SLO factor %g is not below 2^63 ns",
				i, k, meanIso, cfg.SLOMultiplier, e.sloFactor())
		}
		// After the bound, which names M_slo for a NaN or infinite factor.
		if err := e.check(i); err != nil {
			return err
		}
		s.resolved = append(s.resolved, resolvedEntry{traces: traces, slo: time.Duration(slo)})
	}

	s.proc = cfg.Process
	if s.proc == nil {
		s.poisson = traffic.Poisson{Rate: cfg.RatePerSec}
		s.proc = &s.poisson
	}
	s.proc.Reset()
	s.r.Seed(cfg.Seed)
	// Last, so that a stream whose Reset failed has no requests.
	s.entries, s.cfg = sc.Entries, cfg
	return nil
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
	s.now = traffic.Advance(s.now, s.proc.Next(&s.r, s.now))
	i := sampleEntry(&s.r, s.entries, s.totalWeight)
	e := &s.resolved[i]
	s.req = Request{
		ID:      s.next,
		Trace:   &e.traces[s.r.Intn(len(e.traces))],
		Arrival: s.now,
		SLO:     e.slo,
	}
	s.next++
	return &s.req, true
}
