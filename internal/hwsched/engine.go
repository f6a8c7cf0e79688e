package hwsched

import (
	"fmt"
	"math"
	"time"

	"sparsedysta/internal/core"
	"sparsedysta/internal/fp16"
	"sparsedysta/internal/sched"
	"sparsedysta/internal/trace"
)

// Engine is the behavioural model of the hardware dynamic scheduler: a
// sched.Scheduler whose score arithmetic runs through the reconfigurable
// compute unit's dataflows in the hardware datatype (FP16 or FP32), with
// cycle accounting per invocation.
//
// It mirrors internal/core's Dysta exactly in structure — the static
// software level is identical, the dynamic level computes the same
// formulas — but every dynamic-level operand and every intermediate result
// is rounded to the datapath precision, in *seconds* (the operand scale
// that keeps all benchmark quantities inside FP16's normal range).
// Rounding after every operation is bit-equivalent to performing the
// operation in the target precision, because the float64 intermediate is
// exact for 16/32-bit inputs and IEEE rounding is applied once.
//
// Comparing Engine's end-to-end metrics against core.Dysta's float64
// reference quantifies the cost of the FP16 optimization: none, per the
// paper's §6.5 claim.
type Engine struct {
	cfg   core.Config
	prec  Precision
	round func(float64) float64
	lut   *trace.StatsSet

	luts map[trace.Key]*hwLUT

	invocations uint64
	cycles      uint64
	// resident counts the requests in the FIFOs; found[n] counts the
	// arrivals that found n of them there (see Saturated).
	resident int
	found    []int
}

// hwLUT is the quantized model-info LUT entry for one model-pattern pair
// (the latency / sparsity / shape LUTs of Fig. 10). All values are
// pre-rounded to the datapath precision, as they would be stored on chip.
type hwLUT struct {
	// remainSec[l] is the average remaining latency from layer l (s).
	remainSec []float64
	// sensSec[l] is the remaining-latency sensitivity from layer l (s).
	sensSec []float64
	// recipAvgSparsity[l] is 1/AvgLayerSparsity[l], precomputed offline
	// (the DIV-to-MULT optimization); 0 marks a structurally dense layer.
	recipAvgSparsity []float64
	// recipTotalSec is 1/avg isolated latency for the penalty dataflow.
	recipTotalSec float64
	// totalSec is the avg isolated latency (s) the static level scores.
	totalSec float64
}

// hwState is one request's FIFO entry, kept on its Task.Attachment.
type hwState struct {
	gamma float64 // sparsity coefficient (last-one, per §5.1)
	lut   *hwLUT
	// staticScore is the software static level's arrival score (s),
	// from the request's own SLO.
	staticScore float64
}

// fp16Round rounds through IEEE binary16.
func fp16Round(v float64) float64 { return fp16.FromFloat64(v).Float64() }

// fp32Round rounds through IEEE binary32.
func fp32Round(v float64) float64 { return float64(float32(v)) }

// NewEngine returns a hardware-scheduler model over the profiling LUT.
// The config's strategy must be LastOne — the only strategy the hardware
// implements (§5.1 chooses it for its minimal compute and storage).
func NewEngine(cfg core.Config, lut *trace.StatsSet, prec Precision) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if cfg.Strategy != core.LastOne {
		return nil, fmt.Errorf("hwsched: hardware implements only the last-one strategy, got %v", cfg.Strategy)
	}
	round := fp32Round
	if prec == FP16 {
		round = fp16Round
	}
	return &Engine{
		cfg:   cfg,
		prec:  prec,
		round: round,
		lut:   lut,
		luts:  map[trace.Key]*hwLUT{},
	}, nil
}

// Name implements sched.Scheduler.
func (e *Engine) Name() string { return "Dysta-HW-" + e.prec.String() }

// Precision returns the datapath precision.
func (e *Engine) Precision() Precision { return e.prec }

// sec converts a duration to seconds.
func sec(d time.Duration) float64 { return d.Seconds() }

// hwLUTFor builds (once) the quantized LUT image of a key.
func (e *Engine) hwLUTFor(k trace.Key) *hwLUT {
	if l, ok := e.luts[k]; ok {
		return l
	}
	st := e.lut.MustLookup(k)
	n := st.NumLayers()
	l := &hwLUT{
		remainSec:        make([]float64, n+1),
		sensSec:          make([]float64, n+1),
		recipAvgSparsity: make([]float64, n),
	}
	for i := 0; i <= n; i++ {
		l.remainSec[i] = e.round(sec(st.AvgRemaining(i)))
		l.sensSec[i] = e.round(e.sensitivity(st, i) / 1e9)
	}
	for i := 0; i < n; i++ {
		if avg := st.AvgLayerSparsity[i]; avg > 1e-9 {
			l.recipAvgSparsity[i] = e.round(1 / avg)
		}
	}
	l.totalSec = sec(st.AvgTotal)
	l.recipTotalSec = e.round(1 / l.totalSec)
	e.luts[k] = l
	return l
}

// sensitivity selects the configured coefficient space, mirroring
// core.Predictor.
func (e *Engine) sensitivity(st *trace.Stats, from int) float64 {
	if e.cfg.Mode == core.DensityRatio {
		return st.SensitivityRemainingDensity(from)
	}
	return st.SensitivityRemaining(from)
}

// OnArrival implements sched.Scheduler: the software static level pushes
// the request, its static score and its LUT references into the FIFOs.
// The model has no FIFO depth: it counts the occupancy each arrival
// finds, and Saturated reads from that count the arrivals a FIFO of any
// depth would have back-pressured, while every arrival is scheduled so
// that metrics stay comparable across schedulers.
func (e *Engine) OnArrival(t *sched.Task, _ time.Duration) {
	if e.resident == len(e.found) {
		e.found = append(e.found, 0)
	}
	e.found[e.resident]++
	e.resident++
	l := e.hwLUTFor(t.Key)
	t.Attachment = &hwState{
		gamma:       1,
		lut:         l,
		staticScore: e.round(l.totalSec + e.cfg.Beta*(sec(t.SLO)-l.totalSec)),
	}
}

// Cycle costs of the pipelined compute unit at 200 MHz (§6.1): the
// coefficient dataflow is two multiplies deep; a scheduling invocation
// pays a pipeline fill and then streams one request per cycle through the
// score dataflow and one per cycle through the argmin comparator.
const (
	coeffCycles = 4
	pipeFill    = 8
)

// OnLayerComplete implements sched.Scheduler: the runtime monitor's
// zero-count becomes the layer sparsity, and the coefficient dataflow
// (Fig. 11c) computes the last-one gamma = S_monitor x (1/S_avg).
func (e *Engine) OnLayerComplete(t *sched.Task, layer int, monitored float64, _ time.Duration) {
	s, _ := t.Attachment.(*hwState)
	if s == nil {
		return // a task the engine never saw arrive
	}
	if t.Done {
		e.resident-- // its FIFO entry leaves
		t.Attachment = nil
		return
	}
	if !e.cfg.DynamicEnabled {
		return
	}
	recip := s.lut.recipAvgSparsity[layer]
	if recip == 0 {
		return // structurally dense layer carries no signal
	}
	gamma := e.round(e.round(monitored) * recip)
	// The hardware clamps the coefficient with a comparator pair.
	gamma = math.Max(e.round(1/e.cfg.GammaClamp), math.Min(e.round(e.cfg.GammaClamp), gamma))
	s.gamma = gamma
	e.cycles += coeffCycles
}

// PickNext implements sched.Scheduler: re-score every FIFO entry through
// the score dataflow and take the argmin.
func (e *Engine) PickNext(ready []*sched.Task, now time.Duration) *sched.Task {
	e.invocations++
	e.cycles += pipeFill + 2*uint64(len(ready))

	best := ready[0]
	bestScore := e.score(best, now, len(ready))
	for _, t := range ready[1:] {
		// Ties break by task ID so the decision is independent of the
		// ready queue's (unspecified) iteration order; the FP16 rounding
		// of the score datapath makes exact ties likelier than in the
		// float64 reference.
		if sc := e.score(t, now, len(ready)); sc < bestScore || (sc == bestScore && t.ID < best.ID) {
			best, bestScore = t, sc
		}
	}
	return best
}

// score runs the dynamic score dataflow (Fig. 11d) in the hardware
// datatype, in seconds.
func (e *Engine) score(t *sched.Task, now time.Duration, queueLen int) float64 {
	s, _ := t.Attachment.(*hwState)
	if s == nil {
		return math.Inf(1) // a task the engine never saw arrive
	}
	if !e.cfg.DynamicEnabled {
		return s.staticScore
	}
	r := e.round
	lut := s.lut

	// remain = avgRemain + (gamma - 1) x sensitivity  [Sub, Mul, Add]
	dGamma := r(s.gamma - 1)
	remain := r(lut.remainSec[t.NextLayer] + r(dGamma*lut.sensSec[t.NextLayer]))
	if remain < 0 {
		remain = 0
	}

	// slack = (deadline - now) - remain  [Sub, Sub]
	slack := r(r(sec(t.Deadline()-now)) - remain)
	demotion := 0.0
	if slack < 0 {
		slack = 0
		demotion = r(e.cfg.DemotionMS / 1e3)
	}

	// penalty = wait x (1/isol) x (eta-scaled queue reciprocal)  [Mul, Mul]
	penalty := r(r(r(sec(t.SinceLastRun(now)))*lut.recipTotalSec) *
		r(e.cfg.PenaltyWeight/(1e3*float64(queueLen))))

	// score = remain + eta x (slack + penalty) + demotion  [Add, Mul, Add, Add]
	score := r(remain + r(r(e.cfg.Eta)*r(slack+penalty)))
	return r(score + demotion)
}

// Invocations returns how many scheduling decisions were taken.
func (e *Engine) Invocations() uint64 { return e.invocations }

// Cycles returns the total compute-unit cycles consumed.
func (e *Engine) Cycles() uint64 { return e.cycles }

// Saturated returns how many arrivals found a FIFO of the given depth
// full: at least depth requests resident.
func (e *Engine) Saturated(depth int) int {
	n := 0
	for resident, c := range e.found {
		if resident >= depth {
			n += c
		}
	}
	return n
}

// OverheadSeconds converts the consumed cycles to wall time at the given
// clock (the paper clocks the scheduler at 200 MHz).
func (e *Engine) OverheadSeconds(clockHz float64) float64 {
	return float64(e.cycles) / clockHz
}

var _ sched.Scheduler = (*Engine)(nil)
