package core

import (
	"fmt"
	"math/bits"
	"reflect"
	"slices"
	"testing"
	"time"
	"unsafe"

	"sparsedysta/internal/sched"
	"sparsedysta/internal/sparsity"
	"sparsedysta/internal/trace"
)

// TestRequestStateSize pins Dysta's per-request state at 112 bytes: its
// predictor points at the scheduler's config instead of carrying a
// 96-byte copy, and every state chunk pays for each byte a state holds.
func TestRequestStateSize(t *testing.T) {
	if got := unsafe.Sizeof(requestState{}); got != 112 {
		t.Errorf("requestState is %d bytes, want 112", got)
	}
}

// walkOrder lists a heap's task IDs in walk order, which, with the heap's
// size, fixes its layout.
func walkOrder(h *sched.TaskHeap) []int {
	var ids []int
	h.Walk(func(t *sched.Task) bool {
		ids = append(ids, t.ID)
		return true
	})
	return ids
}

// liveWindow is the part of a LastN window the next Observe reads: the
// slots written since the state's arrival. A recycled state keeps its
// window buffer, so slots beyond that hold stale ratios nobody reads.
func liveWindow(p Predictor) []float64 {
	return p.window[:min(p.count, len(p.window))]
}

// checkSameState fails unless two attachments are equal field by field,
// the LastN window compared on its live slots.
func checkSameState(t *testing.T, label string, fresh, recycled *requestState) {
	t.Helper()
	if !slices.Equal(liveWindow(fresh.pred), liveWindow(recycled.pred)) {
		t.Fatalf("%s: live windows differ: fresh %v, recycled %v",
			label, liveWindow(fresh.pred), liveWindow(recycled.pred))
	}
	f, r := *fresh, *recycled
	f.pred.window, r.pred.window = nil, nil
	if !reflect.DeepEqual(f, r) {
		t.Fatalf("%s: recycled state %+v differs from fresh %+v", label, r, f)
	}
}

// TestRecycledStateMatchesFresh: a state Dysta takes off its free list
// must be indistinguishable from a freshly allocated one. One scheduler
// first serves a request with a tight SLO (so it ends demoted) through
// several observed layers and completes it, leaving a dirty state on its
// free list; then the same task arrives on it and on a fresh instance,
// next to the same competitor, and both are driven through the same
// layer observations. After every event the attachments, the heap that
// holds the task and its key, and the pick must agree, under each gamma
// strategy and without the dynamic level. Each case runs twice: on
// otherwise empty schedulers, whose first states come in chunks of one,
// and on schedulers already holding two live requests, whose next states
// both come from one chunk of two (sched's
// TestFreeListGrowsInDoublingChunks pins the chunk sizes).
func TestRecycledStateMatchesFresh(t *testing.T) {
	k := trace.NewKey("m", sparsity.Dense)
	const layers = 6
	var traces []trace.SampleTrace
	for i, sp := range []float64{0.2, 0.5, 0.8} {
		tr := uniformTrace(time.Duration(3-i)*time.Millisecond, layers, sp)
		tr.LayerSparsity[i] = sp / 2
		traces = append(traces, tr)
	}
	lut := synthLUT(t, map[trace.Key][]trace.SampleTrace{k: traces})
	const msec = time.Millisecond
	// observed is the monitored sparsity of each executed layer.
	observed := []float64{0.9, 0.1, 0.6, 0.3, 0.7, 0.5}

	cfgs := map[string]Config{
		"last-one":    DefaultConfig(),
		"w/o-sparse":  DefaultConfig().WithoutSparse(),
		"average-all": func() Config { c := DefaultConfig(); c.Strategy = AverageAll; return c }(),
		"last-n":      func() Config { c := DefaultConfig(); c.Strategy = LastN; c.N = 3; return c }(),
	}
	type run struct {
		name string
		cfg  Config
		warm int
	}
	var runs []run
	for name, cfg := range cfgs {
		runs = append(runs, run{name, cfg, 0}, run{name + " chunked", cfg, 2})
	}
	for _, r := range runs {
		name, cfg := r.name, r.cfg
		fresh, used := New(cfg, lut), New(cfg, lut)
		// Live requests with ample slack, the same on both schedulers.
		for i := 0; i < r.warm; i++ {
			for _, d := range []*Dysta{fresh, used} {
				d.OnArrival(&sched.Task{ID: 100 + i, Key: k, SLO: time.Hour}, 0)
			}
		}

		// Dirty a state: a request far past its slack, observed through
		// every layer, then completed.
		old := &sched.Task{ID: 7, Key: k, SLO: msec}
		used.OnArrival(old, 0)
		dirty := state(old)
		for l := 0; l < layers; l++ {
			old.NextLayer, old.LastRun = l+1, time.Duration(l+1)*msec
			old.Done = l == layers-1
			used.OnLayerComplete(old, l, observed[layers-1-l], old.LastRun)
		}
		mk := func() (task, rival *sched.Task) {
			task = &sched.Task{ID: 1, Key: k, Arrival: 10 * msec, SLO: 40 * msec, LastRun: 10 * msec}
			rival = &sched.Task{ID: 2, Key: k, Arrival: 10 * msec, SLO: 25 * msec, LastRun: 10 * msec}
			return task, rival
		}
		fa, fb := mk()
		ua, ub := mk()
		fresh.OnArrival(fa, 10*msec)
		used.OnArrival(ua, 10*msec)
		fresh.OnArrival(fb, 10*msec)
		used.OnArrival(ub, 10*msec)
		if state(ua) != dirty {
			t.Fatalf("%s: the arrival did not reuse the freed state", name)
		}

		check := func(when string, now time.Duration) {
			t.Helper()
			label := name + " " + when
			checkSameState(t, label, state(fa), state(ua))
			checkSameState(t, label, state(fb), state(ub))
			if fh, uh := fresh.heap(state(fa)), used.heap(state(ua)); (fh == &fresh.demoted) != (uh == &used.demoted) {
				t.Fatalf("%s: fresh and recycled tasks sit in different heaps", label)
			}
			for _, pair := range [][2]*sched.TaskHeap{{&fresh.feasible, &used.feasible}, {&fresh.demoted, &used.demoted}} {
				if f, u := walkOrder(pair[0]), walkOrder(pair[1]); !slices.Equal(f, u) {
					t.Fatalf("%s: heap layouts differ: walk order %v vs %v", label, f, u)
				}
			}
			fp := fresh.PickNext([]*sched.Task{fa, fb}, now)
			up := used.PickNext([]*sched.Task{ua, ub}, now)
			if fp.ID != up.ID {
				t.Fatalf("%s: fresh picks task %d, recycled picks task %d", label, fp.ID, up.ID)
			}
		}
		check("at arrival", 10*msec)
		for l := 0; l < layers-1; l++ {
			now := time.Duration(12+3*l) * msec
			for _, tk := range []*sched.Task{fa, ua} {
				tk.NextLayer, tk.LastRun, tk.ExecTime = l+1, now, time.Duration(l+1)*msec
			}
			fresh.OnLayerComplete(fa, l, observed[l], now)
			used.OnLayerComplete(ua, l, observed[l], now)
			check(fmt.Sprintf("after layer %d", l), now)
		}
	}
}

// TestStateAllocationsGrowLogarithmically: a fresh Dysta that reaches n
// live requests allocates its states in chunks that double the count it
// holds, so it makes O(log n) allocations in all (its heaps and free
// list grow by doubling too), not one per request.
func TestStateAllocationsGrowLogarithmically(t *testing.T) {
	k := trace.NewKey("m", sparsity.Dense)
	lut := synthLUT(t, map[trace.Key][]trace.SampleTrace{k: {uniformTrace(time.Millisecond, 4, 0.5)}})
	for _, n := range []int{1000, 8000} {
		tasks := make([]*sched.Task, n)
		for i := range tasks {
			tasks[i] = &sched.Task{ID: i, Key: k, SLO: time.Second}
		}
		allocs := testing.AllocsPerRun(1, func() {
			d := NewDefault(lut)
			for _, tk := range tasks {
				d.OnArrival(tk, 0)
			}
		})
		if limit := 4 * bits.Len(uint(n)); allocs > float64(limit) {
			t.Errorf("%d live requests: %v allocations, want at most %d", n, allocs, limit)
		}
	}
}

// scribble writes a nonzero value into every field of the struct v
// holds, unexported and nested fields included, as stale contents fill
// a recycled value. It fails on a kind it has no value for, so a field
// added later cannot stay zero unnoticed.
func scribble(t *testing.T, v reflect.Value) {
	t.Helper()
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Field(i)
			scribble(t, reflect.NewAt(f.Type(), unsafe.Pointer(f.UnsafeAddr())).Elem())
		}
	case reflect.Bool:
		v.SetBool(true)
	case reflect.Int, reflect.Int64:
		v.SetInt(-7)
	case reflect.Float64:
		v.SetFloat(7.5)
	case reflect.String:
		v.SetString("stale")
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
	case reflect.Slice:
		v.Set(reflect.MakeSlice(v.Type(), 1, 1))
	case reflect.Interface:
		v.Set(reflect.ValueOf(-7))
	default:
		t.Fatalf("scribble has no stale value for a %s", v.Type())
	}
}

// TestScribbledStateMatchesFresh: OnArrival writes every field of the
// state it takes off its free list, the predictor's and its config
// pointer included, so a state whose fields all hold stale values becomes
// exactly the state a fresh scheduler builds, under each gamma strategy,
// without the dynamic level and for a request that arrives demoted. The
// LastN window buffer is the one field kept; at arrival it has no live
// slot to compare.
func TestScribbledStateMatchesFresh(t *testing.T) {
	k := trace.NewKey("m", sparsity.Dense)
	lut := synthLUT(t, map[trace.Key][]trace.SampleTrace{k: {uniformTrace(time.Millisecond, 4, 0.5)}})
	const msec = time.Millisecond
	cfgs := map[string]Config{
		"last-one":    DefaultConfig(),
		"w/o-sparse":  DefaultConfig().WithoutSparse(),
		"average-all": func() Config { c := DefaultConfig(); c.Strategy = AverageAll; return c }(),
		"last-n":      func() Config { c := DefaultConfig(); c.Strategy = LastN; c.N = 3; return c }(),
	}
	for name, cfg := range cfgs {
		for _, slo := range []time.Duration{40 * msec, msec} {
			fresh, used := New(cfg, lut), New(cfg, lut)
			stale := new(requestState)
			scribble(t, reflect.ValueOf(stale).Elem())
			used.free.Put(stale)
			mk := func() *sched.Task {
				return &sched.Task{ID: 1, Key: k, Arrival: 10 * msec, SLO: slo, LastRun: 10 * msec}
			}
			ft, ut := mk(), mk()
			fresh.OnArrival(ft, 12*msec)
			used.OnArrival(ut, 12*msec)
			if state(ut) != stale {
				t.Fatalf("%s: the arrival did not reuse the stale state", name)
			}
			checkSameState(t, fmt.Sprintf("%s, SLO %v", name, slo), state(ft), state(ut))
		}
	}
}
