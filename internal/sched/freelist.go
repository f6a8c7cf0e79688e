package sched

import "sync"

// FreeList recycles values of T for one owner: a scheduler's per-task
// states, or the Tasks of one run. P is *T, and T embeds a Link[T]: the
// free values form a chain through their links, so the list is a chain
// head, a count and the chunks the values live in. Put pushes a value
// onto the chain and Get pops the head, growing the list when the chain
// is empty by a chunk that doubles what it holds (the first chunk holds
// one), threaded so that Gets take it in index order. An owner reaching
// n live values allocates O(log n) times, not n, and freeing or reusing
// a value allocates nothing. A value comes back from Get as its last
// user left it, but for a nil link, so the owner rewrites what it reads.
// The zero value is an empty list; a FreeList is not safe for concurrent
// use.
type FreeList[T any, P linked[T]] struct {
	free chain[T]
	held int
	// depot, when set, is where a dry list takes a stock before it
	// allocates, and where handBack returns its free values.
	depot *depot[T]
}

// Link threads a value through a FreeList's chain while it is free; a
// type pooled in a FreeList embeds it, and only the list reads or writes
// it. A value out of the list holds a nil link.
type Link[T any] struct{ next *T }

// link returns the address of the link, which a pooled type's pointer
// exposes through its embedded Link.
func (l *Link[T]) link() **T { return &l.next }

// linked is the constraint on a FreeList's pointer type: *T, for a T
// that embeds a Link[T].
type linked[T any] interface {
	*T
	link() **T
}

// chain is a run of free values linked head to tail, and how many.
type chain[T any] struct {
	head *T
	n    int
}

// depot is a process-wide store of stocks: the free chains of finished
// lists. A dry list takes a whole stock, head and count, so the lock is
// taken once per growth or hand-back, never once per value, and lists on
// parallel runs contend only when they grow or finish. The stocks sit in
// a slice of chain headers, which grows only when more lists than ever
// before have handed back at once. Unlike a sync.Pool, the garbage
// collector never empties it, so how often a run allocates depends only
// on the runs before it in the process.
type depot[T any] struct {
	mu     sync.Mutex
	stocks []chain[T]
}

// Get pops a free value, growing the list when it has none.
func (l *FreeList[T, P]) Get() *T {
	if l.free.head == nil {
		l.grow()
	}
	v := l.free.head
	next := P(v).link()
	l.free.head, *next = *next, nil
	l.free.n--
	return v
}

// Put hands a value its owner is done with back to the list.
func (l *FreeList[T, P]) Put(v *T) {
	*P(v).link() = l.free.head
	l.free.head = v
	l.free.n++
}

// grow refills a dry list with a stock from the depot when it has one,
// and otherwise adds a chunk as large as what the list holds (one when
// it holds none), each value linked to the next, so that Gets take the
// chunk in index order.
func (l *FreeList[T, P]) grow() {
	if d := l.depot; d != nil {
		d.mu.Lock()
		if n := len(d.stocks); n > 0 {
			l.free = d.stocks[n-1]
			d.stocks[n-1] = chain[T]{}
			d.stocks = d.stocks[:n-1]
		}
		d.mu.Unlock()
		if l.free.n > 0 {
			l.held += l.free.n
			return
		}
	}
	n := max(l.held, 1)
	l.held += n
	chunk := make([]T, n)
	for i := range n - 1 {
		*P(&chunk[i]).link() = &chunk[i+1]
	}
	l.free = chain[T]{head: &chunk[0], n: n}
}

// handBack returns the list's free values to the depot as one stock, so
// the next list to run dry reuses them instead of allocating; values
// still out stay the owner's. Without a depot it does nothing.
func (l *FreeList[T, P]) handBack() {
	if l.depot == nil || l.free.n == 0 {
		return
	}
	l.depot.mu.Lock()
	l.depot.stocks = append(l.depot.stocks, l.free)
	l.depot.mu.Unlock()
	l.held -= l.free.n
	l.free = chain[T]{}
}
