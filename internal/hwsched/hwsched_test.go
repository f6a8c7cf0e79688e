package hwsched

import (
	"math"
	"testing"
	"time"

	"sparsedysta/internal/core"
	"sparsedysta/internal/sched"
	"sparsedysta/internal/trace"
	"sparsedysta/internal/workload"
)

func attnnSetup(t *testing.T) (*trace.StatsSet, []*workload.Request) {
	t.Helper()
	sc := workload.MultiAttNN()
	prof, eval, err := workload.BuildStores(sc, 40, 150, 13)
	if err != nil {
		t.Fatal(err)
	}
	lut, err := trace.NewStatsSet(prof)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := workload.Generate(sc, eval, workload.GenConfig{
		Requests: 300, RatePerSec: 30, SLOMultiplier: 10, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	return lut, reqs
}

func TestNewEngineValidation(t *testing.T) {
	lut := trace.StatsSet{}
	_ = lut
	cfg := core.DefaultConfig()
	cfg.Strategy = core.AverageAll
	if _, err := NewEngine(cfg, nil, FP16); err == nil {
		t.Error("non-last-one strategy accepted")
	}
	bad := core.DefaultConfig()
	bad.Beta = 5
	if _, err := NewEngine(bad, nil, FP16); err == nil {
		t.Error("invalid core config accepted")
	}
}

func TestPrecisionNames(t *testing.T) {
	if FP16.String() != "fp16" || FP32.String() != "fp32" {
		t.Error("precision names wrong")
	}
	lut, _ := attnnSetup(t)
	e, err := NewEngine(core.DefaultConfig(), lut, FP16)
	if err != nil {
		t.Fatal(err)
	}
	if e.Name() != "Dysta-HW-fp16" || e.Precision() != FP16 {
		t.Errorf("engine identity wrong: %q %v", e.Name(), e.Precision())
	}
}

// TestFP16MatchesReference is the software/hardware co-design check: the
// FP16 hardware engine must reproduce the float64 Dysta reference's
// scheduling quality within a small tolerance (the paper's justification
// for the FP16 optimization).
func TestFP16MatchesReference(t *testing.T) {
	lut, reqs := attnnSetup(t)
	ref, err := sched.Run(core.NewDefault(lut), reqs, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, prec := range []Precision{FP32, FP16} {
		eng, err := NewEngine(core.DefaultConfig(), lut, prec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sched.Run(eng, reqs, sched.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(res.ANTT-ref.ANTT) > 0.10*ref.ANTT {
			t.Errorf("%v ANTT %.3f deviates >10%% from reference %.3f", prec, res.ANTT, ref.ANTT)
		}
		if math.Abs(res.ViolationRate-ref.ViolationRate) > 0.03 {
			t.Errorf("%v violations %.3f deviate from reference %.3f",
				prec, res.ViolationRate, ref.ViolationRate)
		}
	}
}

// TestOverheadNegligible verifies §6.5's premise: at 200 MHz the
// scheduler's total compute time is a vanishing fraction of the workload
// makespan.
func TestOverheadNegligible(t *testing.T) {
	lut, reqs := attnnSetup(t)
	eng, err := NewEngine(core.DefaultConfig(), lut, FP16)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sched.Run(eng, reqs, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if eng.Invocations() == 0 || eng.Cycles() == 0 {
		t.Fatal("no cycle accounting recorded")
	}
	overhead := eng.OverheadSeconds(200e6)
	if frac := overhead / res.Makespan.Seconds(); frac > 0.001 {
		t.Errorf("scheduler overhead fraction %.5f exceeds 0.1%%", frac)
	}
}

// TestFIFODepthDropAccounting: one run counts, for every FIFO depth,
// the arrivals that found the FIFO full. A depth-2 FIFO saturates on a
// 300-request stream and a depth-4096 one never does; depth 0 counts
// every arrival, and the count never grows with depth.
func TestFIFODepthDropAccounting(t *testing.T) {
	lut, reqs := attnnSetup(t)
	eng, err := NewEngine(core.DefaultConfig(), lut, FP16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sched.Run(eng, reqs, sched.Options{}); err != nil {
		t.Fatal(err)
	}
	if eng.Saturated(2) == 0 {
		t.Error("depth-2 FIFO never saturated on a 300-request stream")
	}
	if n := eng.Saturated(4096); n != 0 {
		t.Errorf("depth-4096 FIFO dropped %d requests", n)
	}
	if n := eng.Saturated(0); n != len(reqs) {
		t.Errorf("a depth-0 FIFO saturated %d of %d arrivals", n, len(reqs))
	}
	for depth := 1; depth <= 64; depth++ {
		if eng.Saturated(depth) > eng.Saturated(depth-1) {
			t.Fatalf("depth %d saturated %d arrivals, depth %d only %d",
				depth, eng.Saturated(depth), depth-1, eng.Saturated(depth-1))
		}
	}
}

// TestStaticScorePerRequestSLO: the static level scores each request by
// its own SLO. Two entries of one model-pattern pair under SLO factors
// 0.5 and 4 give the pair's requests two SLOs, and the engine's static
// level alone (DynamicEnabled false) completes every request when
// core's does, in FP32 and in FP16. The score used to be cached per key
// from its first request's SLO, and 291 of 300 completions differed.
func TestStaticScorePerRequestSLO(t *testing.T) {
	sc := workload.MultiAttNN()
	sc.Entries = append(sc.Entries, sc.Entries[0])
	sc.Entries[0].SLOFactor = 0.5
	sc.Entries[len(sc.Entries)-1].SLOFactor = 4
	prof, eval, err := workload.BuildStores(sc, 40, 150, 13)
	if err != nil {
		t.Fatal(err)
	}
	lut, err := trace.NewStatsSet(prof)
	if err != nil {
		t.Fatal(err)
	}
	reqs, err := workload.Generate(sc, eval, workload.GenConfig{
		Requests: 300, RatePerSec: 30, SLOMultiplier: 10, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	opts := sched.Options{RecordTasks: true}
	ref, err := sched.Run(core.NewWithoutSparse(lut), reqs, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[int]time.Duration, len(ref.Tasks))
	for _, o := range ref.Tasks {
		want[o.ID] = o.Completion
	}
	for _, prec := range []Precision{FP32, FP16} {
		eng, err := NewEngine(core.DefaultConfig().WithoutSparse(), lut, prec)
		if err != nil {
			t.Fatal(err)
		}
		res, err := sched.Run(eng, reqs, opts)
		if err != nil {
			t.Fatal(err)
		}
		differ := 0
		for _, o := range res.Tasks {
			if c, ok := want[o.ID]; !ok || c != o.Completion {
				differ++
			}
		}
		if differ != 0 || len(res.Tasks) != len(ref.Tasks) {
			t.Errorf("%v: %d of %d completions differ from core's static level (violations %.1f%%, core's %.1f%%)",
				prec, differ, len(res.Tasks), 100*res.ViolationRate, 100*ref.ViolationRate)
		}
	}
}

func TestStaticOnlyEngine(t *testing.T) {
	lut, reqs := attnnSetup(t)
	cfg := core.DefaultConfig().WithoutSparse()
	eng, err := NewEngine(cfg, lut, FP16)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sched.Run(eng, reqs, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ref, err := sched.Run(core.NewWithoutSparse(lut), reqs, sched.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.ANTT-ref.ANTT) > 0.10*ref.ANTT {
		t.Errorf("static-only FP16 ANTT %.3f deviates from reference %.3f", res.ANTT, ref.ANTT)
	}
}

func TestRounding(t *testing.T) {
	// fp16Round must quantize (1/3 is inexact) and fp32Round must keep
	// more precision than fp16Round.
	v := 1.0 / 3.0
	h, s := fp16Round(v), fp32Round(v)
	if h == v || s == v {
		t.Error("rounding left the value exact")
	}
	if math.Abs(h-v) <= math.Abs(s-v) {
		t.Errorf("fp16 error %.3g not larger than fp32 error %.3g",
			math.Abs(h-v), math.Abs(s-v))
	}
}

func TestResourcesAddScale(t *testing.T) {
	a := Resources{LUTs: 1, FFs: 2, DSPs: 3, RAMBytes: 4}
	b := a.Scale(3)
	if b.LUTs != 3 || b.FFs != 6 || b.DSPs != 9 || b.RAMBytes != 12 {
		t.Errorf("Scale wrong: %+v", b)
	}
	a.Add(b)
	if a.LUTs != 4 || a.RAMBytes != 16 {
		t.Errorf("Add wrong: %+v", a)
	}
}

func TestDesignNames(t *testing.T) {
	cases := map[string]Design{
		"Non_Opt_FP32(depth 64)": NonOptFP32(64),
		"Opt_FP32(depth 512)":    OptFP32(512),
		"Opt_FP16(depth 64)":     OptFP16(64),
	}
	for want, d := range cases {
		if got := d.String(); got != want {
			t.Errorf("Design.String() = %q, want %q", got, want)
		}
	}
}

// TestTable6Footprint pins the optimized FP16 design at depth 64 to the
// paper's Table 6 absolute numbers (553 LUTs, 3 DSPs, 0.5 KB RAM) within
// a calibration band.
func TestTable6Footprint(t *testing.T) {
	r := Estimate(OptFP16(64))
	if r.LUTs < 400 || r.LUTs > 700 {
		t.Errorf("Opt_FP16 LUTs = %d, want ~553", r.LUTs)
	}
	if r.DSPs != 3 {
		t.Errorf("Opt_FP16 DSPs = %d, want 3", r.DSPs)
	}
	if r.RAMBytes < 384 || r.RAMBytes > 640 {
		t.Errorf("Opt_FP16 RAM = %dB, want ~512B", r.RAMBytes)
	}
}

// TestFig16Ordering verifies the relative resource reductions of Fig. 16:
// each optimization strictly reduces LUTs, FFs and DSPs at both FIFO
// depths.
func TestFig16Ordering(t *testing.T) {
	for _, depth := range []int{512, 64} {
		non := Estimate(NonOptFP32(depth))
		opt32 := Estimate(OptFP32(depth))
		opt16 := Estimate(OptFP16(depth))
		if !(opt32.LUTs < non.LUTs && opt16.LUTs < opt32.LUTs) {
			t.Errorf("depth %d: LUT ordering violated: %d, %d, %d",
				depth, non.LUTs, opt32.LUTs, opt16.LUTs)
		}
		if !(opt32.FFs < non.FFs && opt16.FFs < opt32.FFs) {
			t.Errorf("depth %d: FF ordering violated: %d, %d, %d",
				depth, non.FFs, opt32.FFs, opt16.FFs)
		}
		if !(opt32.DSPs <= non.DSPs && opt16.DSPs < opt32.DSPs) {
			t.Errorf("depth %d: DSP ordering violated: %d, %d, %d",
				depth, non.DSPs, opt32.DSPs, opt16.DSPs)
		}
	}
}

// TestTable6Overhead verifies the scheduler's overhead vs Eyeriss-V2 stays
// in the sub-2% band of Table 6 (0.55% LUTs, 1.5% DSPs, 0.35% RAM).
func TestTable6Overhead(t *testing.T) {
	lutFrac, dspFrac, ramFrac := Overhead(Estimate(OptFP16(64)))
	if lutFrac > 0.02 {
		t.Errorf("LUT overhead %.4f exceeds 2%%", lutFrac)
	}
	if dspFrac > 0.03 {
		t.Errorf("DSP overhead %.4f exceeds 3%%", dspFrac)
	}
	if ramFrac > 0.02 {
		t.Errorf("RAM overhead %.4f exceeds 2%%", ramFrac)
	}
}

func TestFIFOScalesWithDepth(t *testing.T) {
	shallow := Estimate(OptFP16(64))
	deep := Estimate(OptFP16(512))
	if deep.RAMBytes <= shallow.RAMBytes {
		t.Error("FIFO RAM did not grow with depth")
	}
	if deep.DSPs != shallow.DSPs {
		t.Error("FIFO depth changed DSP count")
	}
}

// TestScoreArgminAgreement compares the FP16 score pipeline against the
// float64 core reference at the decision level: over random queue states,
// the two must pick the same task in the overwhelming majority of cases
// (FP16 rounding may flip near-ties, which are harmless to metrics).
func TestScoreArgminAgreement(t *testing.T) {
	lut, reqs := attnnSetup(t)
	ref := core.NewDefault(lut)
	eng, err := NewEngine(core.DefaultConfig(), lut, FP16)
	if err != nil {
		t.Fatal(err)
	}

	// Drive both schedulers through the same run and count decision
	// disagreements via a shadow comparison inside a wrapper.
	shadow := &shadowScheduler{a: ref, b: eng}
	if _, err := sched.Run(shadow, reqs, sched.Options{}); err != nil {
		t.Fatal(err)
	}
	if shadow.decisions == 0 {
		t.Fatal("no decisions observed")
	}
	agree := float64(shadow.agreements) / float64(shadow.decisions)
	if agree < 0.97 {
		t.Errorf("FP16/float64 argmin agreement %.4f below 0.97 (%d of %d)",
			agree, shadow.agreements, shadow.decisions)
	}
}

// shadowScheduler runs scheduler a, while also asking b for its pick at
// every decision point and counting agreements. Both keep their
// per-request state on Task.Attachment, so the shadow keeps b's, by
// request ID, and swaps it in around every call to b.
type shadowScheduler struct {
	a, b                  sched.Scheduler
	bState                map[int]any
	decisions, agreements int
}

// asB runs f with b's attachments on tasks, and keeps what f leaves
// there as b's.
func (s *shadowScheduler) asB(tasks []*sched.Task, f func()) {
	if s.bState == nil {
		s.bState = map[int]any{}
	}
	own := make([]any, len(tasks))
	for i, t := range tasks {
		own[i], t.Attachment = t.Attachment, s.bState[t.ID]
	}
	f()
	for i, t := range tasks {
		s.bState[t.ID], t.Attachment = t.Attachment, own[i]
	}
}

func (s *shadowScheduler) Name() string { return "shadow" }

func (s *shadowScheduler) OnArrival(t *sched.Task, now time.Duration) {
	s.a.OnArrival(t, now)
	s.asB([]*sched.Task{t}, func() { s.b.OnArrival(t, now) })
}

func (s *shadowScheduler) OnLayerComplete(t *sched.Task, layer int, monitored float64, now time.Duration) {
	s.a.OnLayerComplete(t, layer, monitored, now)
	s.asB([]*sched.Task{t}, func() { s.b.OnLayerComplete(t, layer, monitored, now) })
}

func (s *shadowScheduler) PickNext(ready []*sched.Task, now time.Duration) *sched.Task {
	pa := s.a.PickNext(ready, now)
	var pb *sched.Task
	s.asB(ready, func() { pb = s.b.PickNext(ready, now) })
	s.decisions++
	if pa == pb {
		s.agreements++
	}
	return pa
}
