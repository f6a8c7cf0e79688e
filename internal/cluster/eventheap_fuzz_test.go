package cluster

import (
	"math"
	"testing"
	"time"
)

// refEventModel is the reference: the linear scan over every slot that
// the event tree replaced, keeping the first strictly-lower time so the
// lowest index wins among equal times.
type refEventModel struct {
	ok []bool
	at []time.Duration
}

func (m *refEventModel) min() (int, time.Duration, bool) {
	best, ok := -1, false
	var bt time.Duration
	for i := range m.ok {
		if !m.ok[i] {
			continue
		}
		if !ok || m.at[i] < bt {
			best, bt, ok = i, m.at[i], true
		}
	}
	return best, bt, ok
}

// checkHeapInvariants verifies the structural contract after every
// mutation: each leaf names its own slot, padding leaves are absent, and
// each internal node holds the winner of its two children — the lower
// key, the left child on a tie.
func checkHeapInvariants(t *testing.T, q *eventTree, n int) {
	t.Helper()
	for i := 0; i < q.leaves; i++ {
		leaf := q.node[q.leaves+i]
		if leaf.slot != i {
			t.Fatalf("leaf %d names slot %d", i, leaf.slot)
		}
		if i >= n && leaf.key != absentKey {
			t.Fatalf("padding leaf %d holds key %d", i, leaf.key)
		}
	}
	for p := 1; p < q.leaves; p++ {
		l, r := q.node[2*p], q.node[2*p+1]
		want := l
		if r.key < l.key {
			want = r
		}
		if q.node[p] != want {
			t.Fatalf("node %d holds %+v, its children's winner is %+v", p, q.node[p], want)
		}
	}
}

// FuzzEventHeap drives the cluster event tree through arbitrary
// inject/advance/crash sequences against the linear-scan reference the
// tree replaced: after every operation the tree's minimum must be the
// scan's pick — deterministic tie-break included — and draining at the
// end must visit every pending instant in (time, slot) order without
// skipping one.
func FuzzEventHeap(f *testing.F) {
	// Seeds: tie pile-ups, interleaved removes, re-keys of the minimum,
	// a single-slot degenerate tree, and the latest valid time (byte 15)
	// beside absent slots.
	f.Add([]byte{4, 0, 0, 5, 1, 0, 5, 2, 0, 5, 3, 0, 5})
	f.Add([]byte{4, 0, 0, 9, 1, 0, 3, 0, 1, 0, 2, 0, 7, 1, 1, 0})
	f.Add([]byte{8, 5, 0, 200, 5, 0, 1, 5, 1, 0, 5, 0, 200})
	f.Add([]byte{1, 0, 0, 0, 0, 1, 0, 0, 0, 42})
	f.Add([]byte{3, 2, 0, 15, 0, 3, 0, 1, 0, 15, 2, 3, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		n := 1 + int(data[0]%8)
		q := newEventTree(n)
		ref := &refEventModel{ok: make([]bool, n), at: make([]time.Duration, n)}
		for i := 3; i < len(data); i += 3 {
			slot := int(data[i-2]) % n
			op := data[i-1] % 4
			// A tiny time domain maximizes equal-key collisions, the
			// regime where the tie-break matters; its top value is the
			// latest valid time, which an absent key must not equal.
			tm := time.Duration(data[i] % 16)
			if tm == 15 {
				tm = math.MaxInt64
			}
			if op == 3 { // crash/drain: the slot has no pending event
				q.set(slot, 0, false)
				ref.ok[slot] = false
			} else { // inject/advance: (re-)key the slot
				q.set(slot, tm, true)
				ref.ok[slot], ref.at[slot] = true, tm
			}
			checkHeapInvariants(t, q, n)
			ws, wt, wok := ref.min()
			gs, gt, gok := q.min()
			if gok != wok || (wok && (gs != ws || gt != wt)) {
				t.Fatalf("min = (%d, %v, %v), reference scan = (%d, %v, %v)",
					gs, gt, gok, ws, wt, wok)
			}
		}
		// Drain: the tree must emit every pending instant in
		// nondecreasing (time, slot) order, matching the scan step for
		// step until both are empty.
		var lastT time.Duration = -1
		lastS := -1
		for {
			gs, gt, gok := q.min()
			ws, wt, wok := ref.min()
			if gok != wok || (wok && (gs != ws || gt != wt)) {
				t.Fatalf("drain min = (%d, %v, %v), reference = (%d, %v, %v)", gs, gt, gok, ws, wt, wok)
			}
			if !gok {
				break
			}
			if gt < lastT || (gt == lastT && gs <= lastS) {
				t.Fatalf("drain emitted (%d, %v) after (%d, %v)", gs, gt, lastS, lastT)
			}
			lastT, lastS = gt, gs
			q.set(gs, 0, false)
			ref.ok[gs] = false
			checkHeapInvariants(t, q, n)
		}
	})
}
