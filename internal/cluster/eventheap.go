package cluster

import (
	"fmt"
	"math"
	"math/bits"
	"time"
)

// eventTree is a winner tree over engine slots that finds the slot with
// the earliest pending event. The run loop updates exactly the slots
// whose engines it touched (one per Step or Inject) and refreshes every
// slot only at the rare control-plane instants — churn firings,
// rebalance rounds, autoscaler actions — that can mutate arbitrary
// engines or replace incarnations in place.
//
// The tree is complete over a power-of-two number of leaves: node 1 is
// the root, node p's children are 2p and 2p+1, and slot i's leaf is
// node leaves+i. Every node holds one packed key, the winner of its
// subtree: a pending slot's key is time<<slotBits | slot, so the key
// alone names the slot, and among equal times the lower slot has the
// lower key. set carries the running minimum up the path from the
// slot's leaf to the root: one sibling load and one unsigned min per
// level, with no swaps and no position bookkeeping.
//
// A slot with no pending event (and every padding leaf) holds the absent
// key, all ones, which sorts above every packed key: packed times stop
// at maxTime, math.MaxInt64>>slotBits, so every packed key is at most
// math.MaxInt64. An event past maxTime fails the run with an error
// instead of wrapping into another slot's bits. The tie-break is
// load-bearing: the linear scan this replaces kept the first
// strictly-lower time, so among equal-time slots the lowest index won,
// which the packed order reproduces — the cross-engine determinism
// contract (DESIGN.md §5) and the streaming equivalence tests both pin
// this.
type eventTree struct {
	// node[p] is internal node p's subtree winner for 1 <= p < leaves,
	// and slot p-leaves's own key for p >= leaves; node[0] is unused.
	node     []uint64
	leaves   int
	slotBits uint
	maxTime  time.Duration
}

// absentKey is the key of a slot with no pending event.
const absentKey = math.MaxUint64

// newEventTree returns a tree over n slots, none of them pending.
func newEventTree(n int) *eventTree {
	leaves := 1
	for leaves < n {
		leaves *= 2
	}
	slotBits := uint(bits.Len(uint(leaves - 1)))
	q := &eventTree{node: make([]uint64, 2*leaves), leaves: leaves,
		slotBits: slotBits, maxTime: math.MaxInt64 >> slotBits}
	for p := 1; p < len(q.node); p++ {
		q.node[p] = absentKey
	}
	return q
}

// set records slot i's next event at t, or marks the slot absent when ok
// is false (no pending event). A time outside [0, maxTime] (negative
// ones never come from Engine.NextEvent) leaves the tree as it was and
// returns an error naming the engine, the time and the limit.
func (q *eventTree) set(i int, t time.Duration, ok bool) error {
	key := uint64(absentKey)
	if ok {
		// One unsigned comparison rejects negative times too.
		if uint64(t) > uint64(q.maxTime) {
			return fmt.Errorf("cluster: engine %d has its next event at %v, outside the event queue's range [0, %v]",
				i, t, q.maxTime)
		}
		key = uint64(t)<<q.slotBits | uint64(i)
	}
	node := q.node
	p := q.leaves + i
	node[p] = key
	for p > 1 {
		key = min(key, node[p^1])
		p >>= 1
		node[p] = key
	}
	return nil
}

// min returns the slot with the earliest event, ties to the lowest slot
// index. ok is false when no slot has a pending event.
func (q *eventTree) min() (slot int, t time.Duration, ok bool) {
	key := q.node[1]
	if key == absentKey {
		return -1, 0, false
	}
	return int(key & (1<<q.slotBits - 1)), time.Duration(key >> q.slotBits), true
}
