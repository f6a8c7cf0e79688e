package cluster

import (
	"fmt"
	"math"
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
// node leaves+i. Every node holds the key and slot of the winner of its
// subtree, so set replays one key comparison per level on the path from
// the slot's leaf to the root, with no swaps and no position
// bookkeeping.
//
// A pending slot's key is its event time; a slot with no pending event
// (and every padding leaf) holds the absent key, which sorts above
// every valid time and equals none of them, because keys are unsigned
// and times are never negative. The tie-break is load-bearing: the
// linear scan this replaces kept the first strictly-lower time, so among
// equal-time slots the lowest index won. The left child wins ties and
// lower slots sit further left, so the root holds that same slot — the
// cross-engine determinism contract (DESIGN.md §5) and the streaming
// equivalence tests both pin this.
type eventTree struct {
	// node[p] is internal node p's subtree winner for 1 <= p < leaves,
	// and slot p-leaves's own entry for p >= leaves; node[0] is unused.
	node   []eventNode
	leaves int
}

// eventNode is one node of the tree: the winning key and its slot.
type eventNode struct {
	key  uint64
	slot int
}

// absentKey is the key of a slot with no pending event.
const absentKey = math.MaxUint64

// newEventTree returns a tree over n slots, none of them pending.
func newEventTree(n int) *eventTree {
	leaves := 1
	for leaves < n {
		leaves *= 2
	}
	q := &eventTree{node: make([]eventNode, 2*leaves), leaves: leaves}
	for i := 0; i < leaves; i++ {
		q.node[leaves+i] = eventNode{key: absentKey, slot: i}
	}
	for p := leaves - 1; p >= 1; p-- {
		q.node[p] = q.node[2*p]
	}
	return q
}

// set records slot i's next event at t, or marks the slot absent when ok
// is false (no pending event). t must not be negative: Engine.NextEvent
// never returns a negative time, so one here is a bug.
func (q *eventTree) set(i int, t time.Duration, ok bool) {
	key := uint64(absentKey)
	if ok {
		if t < 0 {
			panic(fmt.Sprintf("cluster: engine %d has its next event at negative time %v", i, t))
		}
		key = uint64(t)
	}
	node := q.node
	p := q.leaves + i
	node[p].key = key
	for p > 1 {
		// l is the left child of p's parent. The right child wins only on
		// a strictly lower key, so a tie goes left. Selecting by an offset
		// compiles to a set-on-condition, not a branch the random order
		// of event times would mispredict.
		l := p &^ 1
		right := 0
		if node[l+1].key < node[l].key {
			right = 1
		}
		p >>= 1
		node[p] = node[l+right]
	}
}

// min returns the slot with the earliest event, ties to the lowest slot
// index. ok is false when no slot has a pending event.
func (q *eventTree) min() (slot int, t time.Duration, ok bool) {
	w := q.node[1]
	if w.key == absentKey {
		return -1, 0, false
	}
	return w.slot, time.Duration(w.key), true
}
