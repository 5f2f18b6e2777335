package dht

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
)

// GenSet is a valid generalization over one tree: a set of generalization
// nodes such that every leaf-to-root path crosses exactly one member
// (Section 4 of the paper). A GenSet is immutable.
//
// GenSets form a lattice ordered by AtOrBelow: the all-leaves frontier is
// the bottom (most specific), {root} is the top (most general). Binning
// produces the minimal generalization nodes (mingends), usage metrics
// produce the maximal generalization nodes (maxgends), and the ultimate
// generalization (ultigends) chosen by multi-attribute binning lies
// between them.
type GenSet struct {
	tree   *Tree
	nodes  []NodeID // sorted by NodeID
	member []bool   // indexed by NodeID
}

// NewGenSet validates and builds a generalization set from the given
// nodes. Validation enforces the paper's definition: the path from every
// leaf to the root encounters one and only one member.
func NewGenSet(t *Tree, nodes []NodeID) (GenSet, error) {
	if t == nil {
		return GenSet{}, errors.New("dht: nil tree")
	}
	member := make([]bool, t.Size())
	for _, id := range nodes {
		if !t.Valid(id) {
			return GenSet{}, fmt.Errorf("dht: node %d not in tree %s", id, t.Attr())
		}
		if member[id] {
			return GenSet{}, fmt.Errorf("dht: duplicate node %q", t.Value(id))
		}
		member[id] = true
	}
	for _, leaf := range t.leaves {
		count := 0
		for cur := leaf; cur != None; cur = t.Parent(cur) {
			if member[cur] {
				count++
			}
		}
		if count != 1 {
			return GenSet{}, fmt.Errorf(
				"dht: invalid generalization for %s: leaf %q crosses %d generalization nodes, want exactly 1",
				t.Attr(), t.Value(leaf), count)
		}
	}
	sorted := make([]NodeID, len(nodes))
	copy(sorted, nodes)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return GenSet{tree: t, nodes: sorted, member: member}, nil
}

// NewGenSetFromValues builds a GenSet from canonical node values.
func NewGenSetFromValues(t *Tree, values []string) (GenSet, error) {
	ids := make([]NodeID, 0, len(values))
	for _, v := range values {
		id, ok := t.ByValue(v)
		if !ok {
			return GenSet{}, fmt.Errorf("dht: value %q not in tree %s", v, t.Attr())
		}
		ids = append(ids, id)
	}
	return NewGenSet(t, ids)
}

// LeafGenSet returns the bottom of the lattice: every leaf is its own
// generalization node (no information loss).
func LeafGenSet(t *Tree) GenSet {
	return mustGenSet(t, t.Leaves())
}

// RootGenSet returns the top of the lattice: the single root node
// (total information loss — full suppression into one bin).
func RootGenSet(t *Tree) GenSet {
	return mustGenSet(t, []NodeID{t.Root()})
}

func mustGenSet(t *Tree, nodes []NodeID) GenSet {
	g, err := NewGenSet(t, nodes)
	if err != nil {
		panic(err)
	}
	return g
}

// Tree returns the tree this set generalizes.
func (g GenSet) Tree() *Tree { return g.tree }

// Nodes returns the member node IDs in ascending ID order.
func (g GenSet) Nodes() []NodeID {
	out := make([]NodeID, len(g.nodes))
	copy(out, g.nodes)
	return out
}

// Values returns the member node values, ordered by node ID.
func (g GenSet) Values() []string {
	out := make([]string, len(g.nodes))
	for i, id := range g.nodes {
		out[i] = g.tree.Value(id)
	}
	return out
}

// Len returns the number of generalization nodes (Ng of §4.2.2).
func (g GenSet) Len() int { return len(g.nodes) }

// IsZero reports whether g is the zero value (no tree attached).
func (g GenSet) IsZero() bool { return g.tree == nil }

// Contains reports whether id is a generalization node of g.
func (g GenSet) Contains(id NodeID) bool {
	return g.tree != nil && g.tree.Valid(id) && g.member[id]
}

// CoverOf returns the member that covers node id: the unique member on
// the path from id to the root, if any. For a leaf this always exists
// (validity); for an internal node it exists only when some member sits
// at or above it.
func (g GenSet) CoverOf(id NodeID) (NodeID, bool) {
	for cur := id; cur != None; cur = g.tree.Parent(cur) {
		if g.member[cur] {
			return cur, true
		}
	}
	return None, false
}

// GeneralizeValue maps a raw cell value to the value of its covering
// generalization node. This is the Bin(.) operation of Figure 8.
func (g GenSet) GeneralizeValue(raw string) (string, error) {
	id, err := g.tree.ResolveValue(raw)
	if err != nil {
		return "", err
	}
	cover, ok := g.CoverOf(id)
	if !ok {
		return "", fmt.Errorf("dht: value %q sits above the generalization frontier of %s", raw, g.tree.Attr())
	}
	return g.tree.Value(cover), nil
}

// Equal reports whether two sets over the same tree have the same members.
func (g GenSet) Equal(o GenSet) bool {
	if g.tree != o.tree || len(g.nodes) != len(o.nodes) {
		return false
	}
	for i := range g.nodes {
		if g.nodes[i] != o.nodes[i] {
			return false
		}
	}
	return true
}

// AtOrBelow reports whether g is at least as specific as upper: every
// member of g lies in the subtree of (at or below) some member of upper.
// Binning guarantees mingends.AtOrBelow(maxgends).
func (g GenSet) AtOrBelow(upper GenSet) bool {
	if g.tree != upper.tree {
		return false
	}
	for _, n := range g.nodes {
		if _, ok := upper.CoverOf(n); !ok {
			return false
		}
	}
	return true
}

// SpecificityLoss returns (N − Ng)/N, the efficient information-loss
// estimate of §4.2.2 used by multi-attribute binning's Selection step,
// where N is the number of leaves and Ng the number of generalization
// nodes.
func (g GenSet) SpecificityLoss() float64 {
	n := g.tree.NumLeaves()
	if n == 0 {
		return 0
	}
	return float64(n-g.Len()) / float64(n)
}

// SplitAt returns a new GenSet with member id replaced by its children
// (one refinement step down the lattice). It errors if id is not a member
// or is a leaf.
func (g GenSet) SplitAt(id NodeID) (GenSet, error) {
	if !g.Contains(id) {
		return GenSet{}, fmt.Errorf("dht: %q is not a generalization node", g.tree.Value(id))
	}
	ch := g.tree.Children(id)
	if len(ch) == 0 {
		return GenSet{}, fmt.Errorf("dht: cannot split leaf %q", g.tree.Value(id))
	}
	nodes := make([]NodeID, 0, len(g.nodes)-1+len(ch))
	for _, n := range g.nodes {
		if n != id {
			nodes = append(nodes, n)
		}
	}
	nodes = append(nodes, ch...)
	return NewGenSet(g.tree, nodes)
}

// MergeAt returns a new GenSet with all children of parent replaced by
// parent (one generalization step up the lattice). All children of parent
// must currently be members.
func (g GenSet) MergeAt(parent NodeID) (GenSet, error) {
	ch := g.tree.Children(parent)
	if len(ch) == 0 {
		return GenSet{}, fmt.Errorf("dht: %q is a leaf", g.tree.Value(parent))
	}
	for _, c := range ch {
		if !g.Contains(c) {
			return GenSet{}, fmt.Errorf("dht: child %q of %q is not a member; cannot merge", g.tree.Value(c), g.tree.Value(parent))
		}
	}
	nodes := make([]NodeID, 0, len(g.nodes)-len(ch)+1)
	for _, n := range g.nodes {
		isChild := false
		for _, c := range ch {
			if n == c {
				isChild = true
				break
			}
		}
		if !isChild {
			nodes = append(nodes, n)
		}
	}
	nodes = append(nodes, parent)
	return NewGenSet(g.tree, nodes)
}

// MergeCandidates returns the parents whose full child sets are members of
// g — the legal MergeAt arguments (the upward moves available from g).
func (g GenSet) MergeCandidates() []NodeID {
	seen := make(map[NodeID]bool)
	var out []NodeID
	for _, n := range g.nodes {
		p := g.tree.Parent(n)
		if p == None || seen[p] {
			continue
		}
		seen[p] = true
		ok := true
		for _, c := range g.tree.Children(p) {
			if !g.Contains(c) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// String renders the member values, e.g. "{Doctor, Paramedic}".
func (g GenSet) String() string {
	if g.tree == nil {
		return "{}"
	}
	return "{" + strings.Join(g.Values(), ", ") + "}"
}

// EnumerateBetween calls fn for every valid generalization g with
// lower.AtOrBelow(g) and g.AtOrBelow(upper) — the "allowable
// generalizations" of §4.2.2, e.g. the six frontiers enumerated for
// Figure 6. Enumeration stops early if fn returns false. It errors if the
// bounds are not ordered (lower must be at or below upper).
//
// The enumeration is the cross product, over the members u of upper, of
// the frontiers of the subtree rooted at u that stay at or above the
// members of lower inside that subtree.
func EnumerateBetween(lower, upper GenSet, fn func(GenSet) bool) error {
	if err := checkBounds(lower, upper); err != nil {
		return err
	}
	t := lower.tree

	// frontiers(u) enumerated lazily via recursion with a callback.
	var frontiers func(u NodeID, emit func([]NodeID) bool) bool
	frontiers = func(u NodeID, emit func([]NodeID) bool) bool {
		// Option 1: stop here — {u} is always allowed (it covers every
		// lower member beneath it).
		if !emit([]NodeID{u}) {
			return false
		}
		// Option 2: descend — allowed only if u is not itself a lower
		// member (descending below lower would violate lower ≤ g).
		if lower.Contains(u) || t.Node(u).IsLeaf() {
			return true
		}
		ch := t.Children(u)
		// Cross product of children's frontiers.
		var cross func(i int, acc []NodeID) bool
		cross = func(i int, acc []NodeID) bool {
			if i == len(ch) {
				out := make([]NodeID, len(acc))
				copy(out, acc)
				return emit(out)
			}
			return frontiers(ch[i], func(sub []NodeID) bool {
				return cross(i+1, append(acc, sub...))
			})
		}
		return cross(0, nil)
	}

	uppers := upper.Nodes()
	var crossTop func(i int, acc []NodeID) bool
	crossTop = func(i int, acc []NodeID) bool {
		if i == len(uppers) {
			nodes := make([]NodeID, len(acc))
			copy(nodes, acc)
			g, err := NewGenSet(t, nodes)
			if err != nil {
				// By construction every emitted set is a valid frontier.
				panic("dht: enumeration produced invalid generalization: " + err.Error())
			}
			return fn(g)
		}
		return frontiers(uppers[i], func(sub []NodeID) bool {
			return crossTop(i+1, append(acc, sub...))
		})
	}
	crossTop(0, nil)
	return nil
}

// checkBounds requires lower and upper to share a tree, lower at or
// below upper.
func checkBounds(lower, upper GenSet) error {
	if lower.tree != upper.tree || lower.tree == nil {
		return errors.New("dht: bounds must share one tree")
	}
	if !lower.AtOrBelow(upper) {
		return errors.New("dht: lower bound is not at-or-below upper bound")
	}
	return nil
}

// CountBetween returns the number of allowable generalizations between
// lower and upper (the per-attribute n_i of §4.2.2), up to limit; it
// returns limit if the true count is at least limit. limit <= 0 counts
// exhaustively (saturating at math.MaxInt).
//
// The count is EnumerateBetween's cross product in closed form: the
// product, over the members u of upper, of frontiers(u) = 1 (stop at u)
// plus, when u is neither a lower member nor a leaf, the product of
// frontiers(c) over u's children. Every product and sum saturates at
// limit, and no frontier is built.
func CountBetween(lower, upper GenSet, limit int) (int, error) {
	if err := checkBounds(lower, upper); err != nil {
		return 0, err
	}
	if limit <= 0 {
		limit = math.MaxInt
	}
	count := 1
	for _, u := range upper.nodes {
		if count = satMul(count, countFrontiers(lower, u, limit), limit); count == limit {
			break
		}
	}
	return count, nil
}

// countFrontiers is frontiers(u) of CountBetween, saturated at limit.
func countFrontiers(lower GenSet, u NodeID, limit int) int {
	t := lower.tree
	if lower.member[u] || t.nodes[u].IsLeaf() {
		return 1
	}
	below := 1
	for _, c := range t.nodes[u].Children {
		if below = satMul(below, countFrontiers(lower, c, limit), limit); below == limit {
			return limit
		}
	}
	return below + 1
}

// satMul returns min(a·b, limit) for 1 <= a, b <= limit.
func satMul(a, b, limit int) int {
	if a > limit/b {
		return limit
	}
	return a * b
}
