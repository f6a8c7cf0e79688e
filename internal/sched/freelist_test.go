package sched

import (
	"fmt"
	"math/bits"
	"reflect"
	"slices"
	"testing"
	"time"
	"unsafe"
)

// walkOrder lists a heap's task IDs in walk order, which, with the heap's
// size, fixes its layout.
func walkOrder(h *TaskHeap) []int {
	var ids []int
	h.Walk(func(t *Task) bool {
		ids = append(ids, t.ID)
		return true
	})
	return ids
}

// TestPREMARecycledStateMatchesFresh: a state PREMA takes off its free
// list must be indistinguishable from a freshly allocated one. One
// scheduler first leaves a dirty state on its free list — a task that
// accrued tokens past the threshold, crossed, and was extracted — then
// the same two tasks arrive on it and on a fresh instance and both are
// driven through the same picks and layer completions. After every event
// the attachments, the heaps' contents and the picks must agree.
func TestPREMARecycledStateMatchesFresh(t *testing.T) {
	const ms = time.Millisecond
	long := func(id int) *Task { return newTask(synthReq(id, "long", 60*ms, 5*ms, 10, 10)) }
	short := func(id int) *Task { return newTask(synthReq(id, "short", 60*ms, ms, 2, 10)) }
	est := synthEstimator(synthReq(0, "long", 0, 5*ms, 10, 10), synthReq(0, "short", 0, ms, 2, 10))
	fresh, used := NewPREMA(est), NewPREMA(est)

	// Dirty a state on used: both tasks wait 40ms and cross, the short
	// one is dispatched and completes, and the long one, still crossed
	// with its tokens, is extracted.
	var q ReadyQueue
	d, r := long(9), short(8)
	for _, tk := range []*Task{d, r} {
		q.add(tk)
		used.OnArrival(tk, 0)
	}
	if got := used.PickNextIncremental(&q, 40*ms); got != r {
		t.Fatalf("set-up pick was task %d, want %d", got.ID, r.ID)
	}
	dirty := d.Attachment.(*premaState)
	// Fix on an intact heap moves nothing; it reports membership.
	if dirty.tokens < used.Threshold || !used.crossed.Fix(d) {
		t.Fatalf("set-up left the long task uncrossed (tokens %v)", dirty.tokens)
	}
	q.remove(r)
	r.NextLayer, r.Done = 2, true
	used.OnLayerComplete(r, 1, 0.5, 42*ms)
	q.remove(d)
	used.OnExtract(d, 42*ms)
	if n := len(used.free.free); n != 2 || used.free.free[n-1] != dirty {
		t.Fatalf("free list holds %d states, the extracted one not on top", n)
	}

	// The same arrivals on both schedulers.
	var fq, uq ReadyQueue
	ft := []*Task{long(1), short(2)}
	ut := []*Task{long(1), short(2)}
	for i := range ft {
		fq.add(ft[i])
		uq.add(ut[i])
		fresh.OnArrival(ft[i], 60*ms)
		used.OnArrival(ut[i], 60*ms)
	}
	if ut[0].Attachment != dirty {
		t.Fatal("the arrival did not reuse the extracted task's state")
	}

	check := func(label string) {
		t.Helper()
		for i := range ft {
			if ft[i].Done != ut[i].Done {
				t.Fatalf("%s: task %d completed on one scheduler only", label, ft[i].ID)
			}
			if ft[i].Done {
				continue
			}
			if f, u := *ft[i].Attachment.(*premaState), *ut[i].Attachment.(*premaState); f != u {
				t.Fatalf("%s: task %d: recycled state %+v differs from fresh %+v", label, ft[i].ID, u, f)
			}
		}
		for _, pair := range [][2]*TaskHeap{{&fresh.uncrossed, &used.uncrossed}, {&fresh.crossed, &used.crossed}} {
			if f, u := walkOrder(pair[0]), walkOrder(pair[1]); !slices.Equal(f, u) {
				t.Fatalf("%s: heap layouts differ: walk order %v vs %v", label, f, u)
			}
		}
	}
	check("at arrival")
	now := 60 * ms
	for step := 0; fq.Len() > 0; step++ {
		now += 7 * ms
		fp := fresh.PickNextIncremental(&fq, now)
		up := used.PickNextIncremental(&uq, now)
		if fp.ID != up.ID {
			t.Fatalf("step %d: fresh picks task %d, recycled picks task %d", step, fp.ID, up.ID)
		}
		check(fmt.Sprintf("step %d pick", step))
		for _, pick := range []struct {
			p *PREMA
			q *ReadyQueue
			t *Task
		}{{fresh, &fq, fp}, {used, &uq, up}} {
			pick.t.NextLayer++
			pick.t.Done = pick.t.NextLayer == pick.t.NumLayers()
			if pick.t.Done {
				pick.q.remove(pick.t)
			}
			pick.p.OnLayerComplete(pick.t, pick.t.NextLayer-1, 0.5, now)
		}
		if fp.Done {
			continue
		}
		check(fmt.Sprintf("step %d layer", step))
	}
}

// TestFreeListGrowsInDoublingChunks: a list that runs dry grows by as
// many values as it holds (one when it holds none), so n Gets without a
// Put make it hold the next power of two at or above n; a Put value is
// the next one Get returns; and a list on a depot hands its free values
// back as one stock, which the next list to run dry takes whole before
// it allocates.
func TestFreeListGrowsInDoublingChunks(t *testing.T) {
	var l FreeList[int]
	for n := 1; n <= 40; n++ {
		l.Get()
		if want := 1 << bits.Len(uint(n-1)); l.held != want {
			t.Fatalf("after %d Gets the list holds %d values, want %d", n, l.held, want)
		}
	}
	v := l.Get()
	l.Put(v)
	if l.Get() != v {
		t.Fatal("Get did not return the value just Put")
	}

	var d depot[int]
	a := FreeList[int]{depot: &d}
	var out []*int
	for range 6 {
		out = append(out, a.Get())
	}
	for _, v := range out {
		a.Put(v)
	}
	a.handBack()
	if a.free != nil || a.held != 0 || len(d.stocks) != 1 || len(d.stocks[0]) != 8 {
		t.Fatalf("after the hand-back the list keeps %d of %d values and the depot %d stocks, want 0, 0 and one of 8",
			len(a.free), a.held, len(d.stocks))
	}
	stocked := map[*int]bool{}
	for _, v := range d.stocks[0] {
		stocked[v] = true
	}
	b := FreeList[int]{depot: &d}
	for range 8 {
		if !stocked[b.Get()] {
			t.Fatal("a list on the depot allocated while the depot had a stock")
		}
	}
	if b.held != 8 || len(d.stocks) != 0 {
		t.Fatalf("a list that took the stock holds %d values and left %d stocks, want 8 and none", b.held, len(d.stocks))
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

// TestRecycledTaskMatchesFresh: wrap writes every field, so a task whose
// fields all hold stale values wraps into exactly the task a zero one
// does.
func TestRecycledTaskMatchesFresh(t *testing.T) {
	r := synthReq(3, "a", 5*time.Millisecond, time.Millisecond, 4, 10)
	stale := new(Task)
	scribble(t, reflect.ValueOf(stale).Elem())
	stale.wrap(r)
	if fresh := newTask(r); !reflect.DeepEqual(stale, fresh) {
		t.Errorf("recycled task %+v differs from fresh %+v", *stale, *fresh)
	}
}
