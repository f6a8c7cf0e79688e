package cluster

import (
	"math"
	"slices"
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
// mutation on the packed keys: each pending leaf's slot bits name its own
// slot and its time is in range, padding leaves are absent, and each
// internal node holds the lower of its two children's keys (packing puts
// the lower slot first among equal times).
func checkHeapInvariants(t *testing.T, q *eventTree, n int) {
	t.Helper()
	mask := uint64(1)<<q.slotBits - 1
	if q.leaves > 1<<q.slotBits || q.maxTime != math.MaxInt64>>q.slotBits {
		t.Fatalf("%d leaves with %d slot bits and limit %v", q.leaves, q.slotBits, q.maxTime)
	}
	for i := 0; i < q.leaves; i++ {
		leaf := q.node[q.leaves+i]
		if leaf == absentKey {
			continue
		}
		if i >= n {
			t.Fatalf("padding leaf %d holds key %#x", i, leaf)
		}
		if got := leaf & mask; got != uint64(i) {
			t.Fatalf("leaf %d names slot %d", i, got)
		}
		if tm := leaf >> q.slotBits; tm > uint64(q.maxTime) {
			t.Fatalf("leaf %d holds time %d past the limit %d", i, tm, q.maxTime)
		}
	}
	for p := 1; p < q.leaves; p++ {
		if want := min(q.node[2*p], q.node[2*p+1]); q.node[p] != want {
			t.Fatalf("node %d holds %#x, its children's winner is %#x", p, q.node[p], want)
		}
	}
}

// FuzzEventHeap drives the cluster event tree through arbitrary
// inject/advance/crash sequences against the linear-scan reference the
// tree replaced: after every operation the tree's minimum must be the
// scan's pick — deterministic tie-break included — and draining at the
// end must visit every pending instant in (time, slot) order without
// skipping one. A time one past the packed range must be refused and
// leave the tree as it was.
func FuzzEventHeap(f *testing.F) {
	// Seeds: tie pile-ups, interleaved removes, re-keys of the minimum,
	// a single-slot degenerate tree, the latest valid time (byte 15)
	// beside absent slots, the latest valid time on the top slot of a
	// full 8-slot tree (the largest packed key) next to a tie on slot 0,
	// and refused out-of-range times (byte 14), on a one-slot tree too.
	f.Add([]byte{4, 0, 0, 5, 1, 0, 5, 2, 0, 5, 3, 0, 5})
	f.Add([]byte{4, 0, 0, 9, 1, 0, 3, 0, 1, 0, 2, 0, 7, 1, 1, 0})
	f.Add([]byte{8, 5, 0, 200, 5, 0, 1, 5, 1, 0, 5, 0, 200})
	f.Add([]byte{1, 0, 0, 0, 0, 1, 0, 0, 0, 42})
	f.Add([]byte{3, 2, 0, 15, 0, 3, 0, 1, 0, 15, 2, 3, 0})
	f.Add([]byte{7, 7, 0, 15, 0, 0, 15, 3, 1, 4, 7, 2, 15})
	f.Add([]byte{2, 1, 0, 14, 0, 0, 3, 1, 1, 14, 0, 2, 14})
	f.Add([]byte{0, 0, 0, 14, 0, 0, 15, 0, 0, 14})
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
			// latest valid time, which an absent key must not equal, and
			// the one below it is the first time past the packed range.
			// A one-slot tree's range ends at math.MaxInt64, so there
			// that time wraps to a negative one, refused all the same.
			tm := time.Duration(data[i] % 16)
			refused := tm == 14
			switch tm {
			case 15:
				tm = q.maxTime
			case 14:
				tm = q.maxTime + 1
			}
			switch {
			case op == 3: // crash/drain: the slot has no pending event
				if err := q.set(slot, 0, false); err != nil {
					t.Fatal(err)
				}
				ref.ok[slot] = false
			case refused: // out of range: refused, tree untouched
				before := slices.Clone(q.node)
				if err := q.set(slot, tm, true); err == nil {
					t.Fatalf("set(%d, %v) past the limit %v succeeded", slot, tm, q.maxTime)
				}
				if !slices.Equal(before, q.node) {
					t.Fatalf("refused set(%d, %v) changed the tree", slot, tm)
				}
			default: // inject/advance: (re-)key the slot
				if err := q.set(slot, tm, true); err != nil {
					t.Fatal(err)
				}
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
			if err := q.set(gs, 0, false); err != nil {
				t.Fatal(err)
			}
			ref.ok[gs] = false
			checkHeapInvariants(t, q, n)
		}
	})
}
