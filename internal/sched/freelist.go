package sched

import "sync"

// FreeList recycles values of T for one owner: a scheduler's per-task
// states, or the Tasks of one run. Get pops a value that was Put back,
// or grows the list by a chunk that doubles what it holds (the first
// chunk holds one), so an owner reaching n live values allocates
// O(log n) times, not n. A value comes back from Get as its last user
// left it, so the owner rewrites what it reads. The zero value is an
// empty list; a FreeList is not safe for concurrent use.
type FreeList[T any] struct {
	free []*T
	held int
	// depot, when set, is where a dry list takes a stock before it
	// allocates, and where handBack returns its free values.
	depot *depot[T]
}

// depot is a process-wide store of stocks: the free values of finished
// lists, each in the slice that held them. A dry list takes a whole
// stock, slice and all, so neither side copies or grows a slice, and the
// lock is taken once per growth or hand-back, never once per value:
// lists on parallel runs contend only when they grow or finish. Unlike a
// sync.Pool, the garbage collector never empties it, so how often a run
// allocates depends only on the runs before it in the process.
type depot[T any] struct {
	mu     sync.Mutex
	stocks [][]*T
}

// Get pops a free value, growing the list when it has none.
func (l *FreeList[T]) Get() *T {
	if len(l.free) == 0 {
		l.grow()
	}
	n := len(l.free) - 1
	v := l.free[n]
	l.free = l.free[:n]
	return v
}

// Put hands a value its owner is done with back to the list.
func (l *FreeList[T]) Put(v *T) { l.free = append(l.free, v) }

// grow refills a dry list with a stock from the depot when it has one,
// and otherwise adds a chunk as large as what the list holds (one when
// it holds none), pushed last to first so that Gets pop it in order.
func (l *FreeList[T]) grow() {
	if d := l.depot; d != nil {
		d.mu.Lock()
		if n := len(d.stocks); n > 0 {
			l.free = d.stocks[n-1]
			d.stocks[n-1] = nil
			d.stocks = d.stocks[:n-1]
		}
		d.mu.Unlock()
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

// handBack returns the list's free values to the depot as one stock, so
// the next list to run dry reuses them instead of allocating; values
// still out stay the owner's. Without a depot it does nothing.
func (l *FreeList[T]) handBack() {
	if l.depot == nil || len(l.free) == 0 {
		return
	}
	l.depot.mu.Lock()
	l.depot.stocks = append(l.depot.stocks, l.free)
	l.depot.mu.Unlock()
	l.held -= len(l.free)
	l.free = nil
}
