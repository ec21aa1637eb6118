package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"time"
)

// The benchmark records its spans itself, around its calls into each layer:
// the program under test is not edited to be measured. A span tree is one
// tick or one recovery; Tree names its root span and ID is the tick or
// recovery index every span of the tree shares.
//
//	tick    → session.submit, session.step → world.tick, session.fanout
//	recover → recovery.open → recovery.restore, recovery.replay; recovery.first_tick
const (
	treeTick    = "tick"
	treeRecover = "recover"
)

// span is one timed interval, in nanoseconds since the recorder was made.
type span struct {
	Tree   string `json:"tree"`
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the workload ends. A nil recorder
// records nothing, which is the untraced run. It is used from the one
// goroutine that drives the workload.
type recorder struct {
	epoch time.Time
	spans []span
	// paused drops spans: warm and tail ticks are not part of the budget.
	paused bool
}

func newRecorder() *recorder { return &recorder{epoch: time.Now(), paused: true} }

// pause turns recording off or on; a nil recorder stays off.
func (r *recorder) pause(p bool) {
	if r != nil {
		r.paused = p
	}
}

func (r *recorder) add(tree string, id int, name, parent string, start, end time.Time) {
	if r == nil || r.paused {
		return
	}
	r.spans = append(r.spans, span{
		Tree: tree, ID: id, Name: name, Parent: parent,
		Start: int64(start.Sub(r.epoch)), End: int64(end.Sub(r.epoch)),
	})
}

// covered returns how much of parent its children cover: the length of the
// union of the child intervals clipped to the parent, so children that run
// side by side (restore ∥ replay) are not counted twice.
func covered(parent span, children []span) int64 {
	type iv struct{ lo, hi int64 }
	var ivs []iv
	for _, c := range children {
		lo, hi := max(c.Start, parent.Start), min(c.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var total int64
	end := parent.Start
	for _, v := range ivs {
		if v.hi <= end {
			continue
		}
		total += v.hi - max(v.lo, end)
		end = v.hi
	}
	return total
}

// treeKey identifies one span tree.
type treeKey struct {
	tree string
	id   int
}

// byTree groups spans into trees, keeping recording order inside each.
func byTree(spans []span) map[treeKey][]span {
	trees := map[treeKey][]span{}
	for _, s := range spans {
		k := treeKey{s.Tree, s.ID}
		trees[k] = append(trees[k], s)
	}
	return trees
}

func childrenOf(tree []span, parent string) []span {
	var cs []span
	for _, s := range tree {
		if s.Parent == parent {
			cs = append(cs, s)
		}
	}
	return cs
}

// selfTimes returns, per span name, the summed self time over every tree: a
// span's duration minus what its children cover.
func selfTimes(spans []span) map[string]time.Duration {
	self := map[string]time.Duration{}
	for _, tree := range byTree(spans) {
		for _, s := range tree {
			self[s.Name] += time.Duration(s.dur() - covered(s, childrenOf(tree, s.Name)))
		}
	}
	return self
}

// sumTolerance is how far the children of a tick or a recovery may miss
// their parent before the traced run fails.
const sumTolerance = 0.03

// checkTrees fails if any root span's direct children miss it by more than
// sumTolerance, or if a tree has no root or more than one.
func checkTrees(spans []span) error {
	for key, tree := range byTree(spans) {
		var root *span
		for i := range tree {
			if tree[i].Parent == "" {
				if root != nil {
					return fmt.Errorf("%s %d has two root spans", key.tree, key.id)
				}
				root = &tree[i]
			}
		}
		if root == nil {
			return fmt.Errorf("%s %d has no root span", key.tree, key.id)
		}
		kids := childrenOf(tree, root.Name)
		var sum int64
		for _, k := range kids {
			sum += k.dur()
		}
		// The children of a root run one after another, so their summed
		// durations and the part of the parent they cover must both match it.
		for _, got := range []int64{sum, covered(*root, kids)} {
			if miss := float64(got-root.dur()) / float64(root.dur()); miss > sumTolerance || miss < -sumTolerance {
				return fmt.Errorf("%s %d: children account for %d ns of a %d ns %s span (%.1f%% off, limit %.0f%%)",
					key.tree, key.id, got, root.dur(), root.Name, 100*miss, 100*sumTolerance)
			}
		}
	}
	return nil
}

// writeTrace writes the spans and the per-layer table into dir.
func writeTrace(dir string, spans []span, layers map[string]metric) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for name, v := range map[string]any{"spans.json": spans, "layers.json": layers} {
		b, err := json.MarshalIndent(v, "", " ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(dir+"/"+name, b, 0o644); err != nil {
			return err
		}
	}
	return nil
}
