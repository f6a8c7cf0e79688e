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
	if n := used.free.free.n; n != 2 || used.free.free.head != dirty {
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
// the next one Get returns; and a list on a depot hands its free chain
// back as one stock, which the next list to run dry takes whole before
// it allocates.
func TestFreeListGrowsInDoublingChunks(t *testing.T) {
	var l FreeList[cell, *cell]
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

	var d depot[cell]
	a := FreeList[cell, *cell]{depot: &d}
	var out []*cell
	for range 6 {
		out = append(out, a.Get())
	}
	for _, v := range out {
		a.Put(v)
	}
	a.handBack()
	if a.free.head != nil || a.free.n != 0 || a.held != 0 || len(d.stocks) != 1 || d.stocks[0].n != 8 {
		t.Fatalf("after the hand-back the list keeps %d of %d values and the depot %d stocks, want 0, 0 and one of 8",
			a.free.n, a.held, len(d.stocks))
	}
	stocked := map[*cell]bool{}
	for _, v := range chainValues(d.stocks[0]) {
		stocked[v] = true
	}
	if len(stocked) != 8 {
		t.Fatalf("the stock's chain links %d values, want 8", len(stocked))
	}
	b := FreeList[cell, *cell]{depot: &d}
	for range 8 {
		if !stocked[b.Get()] {
			t.Fatal("a list on the depot allocated while the depot had a stock")
		}
	}
	if b.held != 8 || len(d.stocks) != 0 {
		t.Fatalf("a list that took the stock holds %d values and left %d stocks, want 8 and none", b.held, len(d.stocks))
	}
}

// cell is a value the list tests pool.
type cell struct {
	id int
	Link[cell]
}

// chainValues lists a chain's values from its head, the order Gets take
// them in.
func chainValues[T any, P linked[T]](c chain[T]) []*T {
	var vs []*T
	for v := c.head; v != nil; v = *P(v).link() {
		vs = append(vs, v)
	}
	return vs
}

// sliceList is the FreeList this package kept before the chain: its free
// values sit in a slice of pointers beside the chunks, which grow and
// Put regrow. It is the oracle FuzzFreeList holds the chain to.
type sliceList[T any] struct {
	free  []*T
	held  int
	depot *sliceDepot[T]
}

// sliceDepot is sliceList's depot: each stock is the slice that held a
// finished list's free values.
type sliceDepot[T any] struct {
	stocks [][]*T
}

func (l *sliceList[T]) Get() *T {
	if len(l.free) == 0 {
		l.grow()
	}
	n := len(l.free) - 1
	v := l.free[n]
	l.free = l.free[:n]
	return v
}

func (l *sliceList[T]) Put(v *T) { l.free = append(l.free, v) }

// grow takes a stock when the depot has one, and otherwise adds a chunk
// as large as what the list holds, pushed last to first so that Gets
// pop it in order.
func (l *sliceList[T]) grow() {
	if d := l.depot; d != nil {
		if n := len(d.stocks); n > 0 {
			l.free = d.stocks[n-1]
			d.stocks = d.stocks[:n-1]
		}
		if len(l.free) > 0 {
			l.held += len(l.free)
			return
		}
	}
	n := max(l.held, 1)
	l.held += n
	chunk := make([]T, n)
	for i := n - 1; i >= 0; i-- {
		l.free = append(l.free, &chunk[i])
	}
}

func (l *sliceList[T]) handBack() {
	if l.depot == nil || len(l.free) == 0 {
		return
	}
	l.depot.stocks = append(l.depot.stocks, l.free)
	l.held -= len(l.free)
	l.free = nil
}

// listPair runs one program on a chained list and on the slice oracle,
// each with two lists on a depot of its own, and matches their values
// one to one: a value either side hands out (or holds free) for the
// first time must be new to the other side too, and one seen before
// must be the partner of the other side's value.
type listPair struct {
	chained [2]*FreeList[cell, *cell]
	oracle  [2]*sliceList[cell]
	cd      depot[cell]
	od      sliceDepot[cell]
	partner map[*cell]*cell // oracle value to chained value
	seen    map[*cell]bool  // chained values with a partner
	// out holds the values still out, with the list each came from.
	out []outValue
}

type outValue struct {
	list            int
	chained, oracle *cell
}

func newListPair() *listPair {
	p := &listPair{partner: map[*cell]*cell{}, seen: map[*cell]bool{}}
	for i := range 2 {
		p.renew(i)
	}
	return p
}

// renew replaces list i on both sides with a new, empty list on the
// depot, as a finished run's engine gives way to the next run's. Values
// still out of the old list are abandoned, as lost work is.
func (p *listPair) renew(i int) {
	p.chained[i] = &FreeList[cell, *cell]{depot: &p.cd}
	p.oracle[i] = &sliceList[cell]{depot: &p.od}
	p.out = slices.DeleteFunc(p.out, func(o outValue) bool { return o.list == i })
}

// match fails unless c is the chained partner of the oracle value o,
// pairing them when neither side has seen its value before.
func (p *listPair) match(o, c *cell) error {
	if want, ok := p.partner[o]; ok {
		if c != want {
			return fmt.Errorf("the chained list has value %p where the oracle's partner is %p", c, want)
		}
		return nil
	}
	if p.seen[c] {
		return fmt.Errorf("the chained list reuses value %p where the oracle has a new one", c)
	}
	p.partner[o], p.seen[c] = c, true
	return nil
}

// matchFree fails unless a chain and an oracle free slice hold partner
// values in the order their Gets would take them.
func (p *listPair) matchFree(c chain[cell], o []*cell) error {
	cv := chainValues(c)
	if len(cv) != c.n || len(cv) != len(o) {
		return fmt.Errorf("a chain counts %d values and links %d, the oracle's slice holds %d", c.n, len(cv), len(o))
	}
	for i, v := range cv {
		if err := p.match(o[len(o)-1-i], v); err != nil {
			return err
		}
	}
	return nil
}

// check compares the counts of both sides: what each list holds and
// has free, and the depots' stocks. With whole, it also matches every
// free value and stock, value by value.
func (p *listPair) check(whole bool) error {
	for i := range 2 {
		c, o := p.chained[i], p.oracle[i]
		if c.held != o.held || c.free.n != len(o.free) {
			return fmt.Errorf("list %d holds %d values, %d free, the oracle's %d, %d free",
				i, c.held, c.free.n, o.held, len(o.free))
		}
		if whole {
			if err := p.matchFree(c.free, o.free); err != nil {
				return fmt.Errorf("list %d: %w", i, err)
			}
		}
	}
	if c, o := len(p.cd.stocks), len(p.od.stocks); c != o {
		return fmt.Errorf("the depot holds %d stocks, the oracle's %d", c, o)
	}
	for i := range p.cd.stocks {
		if c, o := p.cd.stocks[i], p.od.stocks[i]; c.n != len(o) {
			return fmt.Errorf("stock %d holds %d values, the oracle's %d", i, c.n, len(o))
		}
		if whole {
			if err := p.matchFree(p.cd.stocks[i], p.od.stocks[i]); err != nil {
				return fmt.Errorf("stock %d: %w", i, err)
			}
		}
	}
	return nil
}

// step runs one operation, decoded from b, on both sides: Get on a list,
// Put of a value still out back onto its list, handBack of a list onto
// the depot, or renewing a list, so a new one draws from the depot.
func (p *listPair) step(b byte) error {
	i := int(b>>2) & 1
	switch b & 3 {
	case 0:
		o, c := p.oracle[i].Get(), p.chained[i].Get()
		if err := p.match(o, c); err != nil {
			return fmt.Errorf("Get on list %d: %w", i, err)
		}
		if c.Link.next != nil {
			return fmt.Errorf("Get on list %d returned a value with a link", i)
		}
		p.out = append(p.out, outValue{i, c, o})
	case 1:
		if len(p.out) == 0 {
			return nil
		}
		k := int(b>>3) % len(p.out)
		v := p.out[k]
		p.out = slices.Delete(p.out, k, k+1)
		p.oracle[v.list].Put(v.oracle)
		p.chained[v.list].Put(v.chained)
	case 2:
		p.oracle[i].handBack()
		p.chained[i].handBack()
	case 3:
		p.renew(i)
	}
	return p.check(false)
}

// FuzzFreeList runs byte programs of Gets, Puts of values still out,
// hand-backs onto a shared depot and new lists drawing from it on the
// chained FreeList and on the slice list it replaced: both must hand out
// the same values in the same order and hold the same counts after every
// step, and keep the same free values and stocks at the end. A program
// runs at most 256 steps, since values handed back and drawn again can
// make the lists hold a number quadratic in the steps.
func FuzzFreeList(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 0, 9, 2, 3, 0, 0, 0})
	f.Add([]byte{0, 4, 0, 4, 1, 9, 17, 6, 2, 0, 0, 0, 4, 4, 4, 4})
	f.Add([]byte{0, 0, 0, 0, 0, 1, 1, 2, 7, 4, 4, 4, 1, 2, 3, 0, 0, 0, 0})
	f.Fuzz(func(t *testing.T, prog []byte) {
		p := newListPair()
		for n, b := range prog[:min(len(prog), 256)] {
			if err := p.step(b); err != nil {
				t.Fatalf("step %d (op %#x): %v", n, b, err)
			}
		}
		if err := p.check(true); err != nil {
			t.Fatalf("at the end: %v", err)
		}
	})
}

// TestFreeListPutAndHandBackAllocateNothing: freeing values, handing
// them back and drawing the stock on another list allocate nothing once
// the depot has held a stock.
func TestFreeListPutAndHandBackAllocateNothing(t *testing.T) {
	var d depot[cell]
	lists := [2]FreeList[cell, *cell]{{depot: &d}, {depot: &d}}
	vs := make([]*cell, 8)
	for i := range vs {
		vs[i] = lists[0].Get()
	}
	allocs := testing.AllocsPerRun(100, func() {
		for from := range lists {
			for _, v := range vs {
				lists[from].Put(v)
			}
			lists[from].handBack()
			for i := range vs {
				vs[i] = lists[1-from].Get()
			}
		}
	})
	if allocs != 0 {
		t.Errorf("Put, handBack and drawing a stock made %v allocations, want 0", allocs)
	}
}

// TestFreeListAllocatesItsChunks: a list that reaches n values makes one
// allocation per chunk, 1 + ceil(log2 n) of them, and nothing else.
func TestFreeListAllocatesItsChunks(t *testing.T) {
	var l FreeList[cell, *cell]
	for _, n := range []int{1, 2, 3, 8, 9, 100, 1000} {
		allocs := testing.AllocsPerRun(10, func() {
			l = FreeList[cell, *cell]{}
			for range n {
				l.Get()
			}
		})
		if want := 1 + bits.Len(uint(n-1)); allocs != float64(want) {
			t.Errorf("reaching %d values made %v allocations, want %d", n, allocs, want)
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

// TestRecycledTaskMatchesFresh: wrap writes every field but the link,
// which is the task list's, so a task whose fields all hold stale values
// wraps, once the list has handed it out, into exactly the task a zero
// one does.
func TestRecycledTaskMatchesFresh(t *testing.T) {
	r := synthReq(3, "a", 5*time.Millisecond, time.Millisecond, 4, 10)
	stale := new(Task)
	scribble(t, reflect.ValueOf(stale).Elem())
	var l FreeList[Task, *Task]
	l.Put(stale)
	if l.Get() != stale {
		t.Fatal("the list did not hand the stale task back")
	}
	stale.wrap(r)
	if fresh := newTask(r); !reflect.DeepEqual(stale, fresh) {
		t.Errorf("recycled task %+v differs from fresh %+v", *stale, *fresh)
	}
}
