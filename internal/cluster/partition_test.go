package cluster

import (
	"math/rand"
	"testing"

	"repro/internal/wal"
)

// checkTotality asserts the router's core property on one map: every object
// is owned by exactly one valid node — Owner lands in range, and the
// per-node range decomposition tiles the object space with no gap or
// overlap.
func checkTotality(t *testing.T, m PartitionMap) {
	t.Helper()
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	owners := make([]int, m.Objects)
	for obj := 0; obj < m.Objects; obj++ {
		o := m.Owner(obj)
		if o < 0 || o >= m.NumNodes {
			t.Fatalf("object %d owned by node %d of %d", obj, o, m.NumNodes)
		}
		owners[obj] = o
	}
	covered := 0
	for node := 0; node < m.NumNodes; node++ {
		for _, r := range m.NodeRanges(node) {
			if r.Lo < 0 || r.Hi > m.Objects || r.Lo >= r.Hi {
				t.Fatalf("node %d range [%d,%d) out of bounds", node, r.Lo, r.Hi)
			}
			for obj := r.Lo; obj < r.Hi; obj++ {
				if owners[obj] != node {
					t.Fatalf("object %d in node %d's range but owned by %d", obj, node, owners[obj])
				}
				covered++
			}
		}
	}
	if covered != m.Objects {
		t.Fatalf("node ranges cover %d of %d objects", covered, m.Objects)
	}
}

// TestPartitionTotality is the router-totality property test: every object
// is owned by exactly one node for uniform maps of many shapes, for maps
// mutated by random migrations, and for mid-migration routing — before, at
// and after the cutover tick.
func TestPartitionTotality(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, objects := range []int{1, 63, 64, 65, 512, 1000, 7813} {
		for _, nodes := range []int{1, 2, 3, 4, 8, 64} {
			m := Uniform(objects, nodes)
			if m.NumNodes > nodes {
				t.Fatalf("uniform(%d,%d): effective %d exceeds request", objects, nodes, m.NumNodes)
			}
			checkTotality(t, m)

			// A chain of random slot-aligned migrations keeps totality.
			cur := m
			for step := 0; step < 8 && cur.NumNodes > 1; step++ {
				loSlot := rng.Intn(len(cur.Owners))
				from := cur.Owners[loSlot]
				hiSlot := loSlot
				for hiSlot < len(cur.Owners) && cur.Owners[hiSlot] == from && hiSlot-loSlot < 4 {
					hiSlot++
				}
				to := rng.Intn(cur.NumNodes)
				if to == from {
					continue
				}
				lo, hi := loSlot*SlotSize, hiSlot*SlotSize
				if hi > cur.Objects {
					hi = cur.Objects
				}
				if lo >= hi {
					continue
				}
				next, err := cur.Move(lo, hi, to)
				if err != nil {
					t.Fatalf("move [%d,%d)→%d on %d objects: %v", lo, hi, to, objects, err)
				}
				checkTotality(t, next)
				cur = next
			}
		}
	}
}

// TestRoutingCutoverOwnership pins the migration invariant: ownership is
// total before and after the cut, and only the moved range changes owner.
func TestRoutingCutoverOwnership(t *testing.T) {
	m := Uniform(512, 4)
	r, err := NewRouting(m, 0)
	if err != nil {
		t.Fatal(err)
	}
	const lo, hi, to, cut = 128, 192, 3, 10 // half of node 1's [128,256) span
	from := m.Owner(lo)
	if from == to {
		t.Fatal("test degenerated: moved range already owned by target")
	}
	next, err := m.Move(lo, hi, to)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Cut(cut, next); err != nil {
		t.Fatal(err)
	}
	after := r.Current()
	checkTotality(t, after)
	for obj := 0; obj < m.Objects; obj++ {
		want := m.Owner(obj) // the owner before the cut
		if obj >= lo && obj < hi {
			want = to
		}
		if got := after.Owner(obj); got != want {
			t.Fatalf("object %d owned by %d after the cut, want %d", obj, got, want)
		}
	}
	// Cuts must move forward.
	if err := r.Cut(cut, m); err == nil {
		t.Fatal("routing accepted a cut at a past tick")
	}
}

// TestRouteTickExactlyOnce: the router delivers every update of a batch to
// exactly one node, preserving batch order within each node.
func TestRouteTickExactlyOnce(t *testing.T) {
	m := Uniform(512, 4)
	rng := rand.New(rand.NewSource(3))
	const cellsPerObj = 128 // 512 B objects, 4 B cells
	batch := make([]wal.Update, 2000)
	for i := range batch {
		batch[i] = wal.Update{Cell: uint32(rng.Intn(512 * cellsPerObj)), Value: uint32(i)}
	}
	perNode := RouteTick(m, cellsPerObj, batch, make([][]wal.Update, m.NumNodes))
	total := 0
	for node, sub := range perNode {
		lastVal := -1
		for _, u := range sub {
			if owner := m.Owner(int(u.Cell / cellsPerObj)); owner != node {
				t.Fatalf("update for cell %d routed to node %d, owner %d", u.Cell, node, owner)
			}
			if int(u.Value) <= lastVal {
				t.Fatalf("node %d batch out of order: value %d after %d", node, u.Value, lastVal)
			}
			lastVal = int(u.Value)
		}
		total += len(sub)
	}
	if total != len(batch) {
		t.Fatalf("routed %d of %d updates", total, len(batch))
	}
}

// TestMoveRejectsBadRanges pins Move's validation surface.
func TestMoveRejectsBadRanges(t *testing.T) {
	m := Uniform(512, 4)
	cases := []struct {
		lo, hi, to int
	}{
		{-64, 64, 1}, // below zero
		{0, 600, 1},  // past the end
		{10, 74, 1},  // unaligned lo
		{0, 70, 1},   // unaligned hi
		{64, 64, 1},  // empty
		{0, 64, 9},   // no such node
		{0, 64, 0},   // already the owner
		{64, 256, 3}, // spans two owners (128-object nodes)
		{0, 128, -1}, // negative node
	}
	for _, c := range cases {
		if _, err := m.Move(c.lo, c.hi, c.to); err == nil {
			t.Errorf("Move(%d,%d,%d) accepted", c.lo, c.hi, c.to)
		}
	}
	if _, err := m.Move(64, 128, 1); err != nil {
		t.Fatalf("legal move rejected: %v", err)
	}
}
