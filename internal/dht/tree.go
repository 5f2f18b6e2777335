// Package dht implements domain hierarchy trees (DHTs), the structure the
// paper builds both binning and watermarking on. A DHT organizes an
// attribute's domain: leaves are the most specific values, the root is the
// most general description (Figure 1 of the paper). Numeric attributes get
// a binary DHT constructed by dividing the domain into disjoint intervals
// and pairwise combining them (Figure 3).
//
// The package also implements generalization sets (GenSet): a valid
// generalization is a set of nodes such that the path from every leaf to
// the root encounters exactly one set member — one to guarantee
// generalizability, only one to guarantee deterministic generalization
// (Section 4 of the paper).
package dht

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// NodeID identifies a node within one Tree. The root is always NodeID 0.
type NodeID int32

// None is the invalid node ID (used for the root's parent).
const None NodeID = -1

// Node is one vertex of a domain hierarchy tree.
type Node struct {
	ID       NodeID
	Value    string // canonical value; for numeric trees: "[lo,hi)"
	Parent   NodeID // None for the root
	Children []NodeID
	Depth    int // root = 0
	// Lo and Hi bound the half-open interval [Lo, Hi) for numeric trees.
	// They are meaningless (zero) for categorical trees.
	Lo, Hi float64
}

// IsLeaf reports whether the node has no children.
func (n *Node) IsLeaf() bool { return len(n.Children) == 0 }

// Tree is an immutable domain hierarchy tree for one attribute.
type Tree struct {
	attr    string
	numeric bool
	nodes   []Node
	byValue map[string]NodeID
	leaves  []NodeID // in left-to-right construction order
	// numLeavesUnder[i] = number of leaves in the subtree rooted at i.
	numLeavesUnder []int
	// sibRank[i] = index of node i among SortedSiblings(i); sibCount[i] =
	// len(Siblings(i)). Precomputed by finish so per-tuple detection
	// walks read the parity of a node's canonical sibling position
	// without sorting (or allocating) per call.
	sibRank  []int32
	sibCount []int32
	// sorted[i] = Children(i) sorted by node value, built once by finish;
	// SortedChildren hands these slices out read-only.
	sorted [][]NodeID
}

// Spec is a declarative description of a categorical tree, used both by
// builders and by the JSON codec.
type Spec struct {
	Value    string  `json:"value"`
	Lo       float64 `json:"lo,omitempty"`
	Hi       float64 `json:"hi,omitempty"`
	Children []Spec  `json:"children,omitempty"`
}

// NewCategorical builds a tree for attribute attr from a nested Spec.
// Node values must be unique across the tree and non-empty.
func NewCategorical(attr string, root Spec) (*Tree, error) {
	t := &Tree{attr: attr, byValue: make(map[string]NodeID)}
	if err := t.addSpec(root, None, 0); err != nil {
		return nil, err
	}
	t.finish()
	return t, nil
}

func (t *Tree) addSpec(s Spec, parent NodeID, depth int) error {
	if strings.TrimSpace(s.Value) == "" {
		return errors.New("dht: empty node value")
	}
	if _, dup := t.byValue[s.Value]; dup {
		return fmt.Errorf("dht: duplicate node value %q", s.Value)
	}
	id := NodeID(len(t.nodes))
	t.nodes = append(t.nodes, Node{
		ID: id, Value: s.Value, Parent: parent, Depth: depth, Lo: s.Lo, Hi: s.Hi,
	})
	t.byValue[s.Value] = id
	if parent != None {
		t.nodes[parent].Children = append(t.nodes[parent].Children, id)
	}
	for _, c := range s.Children {
		if err := t.addSpec(c, id, depth+1); err != nil {
			return err
		}
	}
	return nil
}

// IntervalValue renders the canonical value string for the half-open
// interval [lo, hi).
func IntervalValue(lo, hi float64) string {
	return "[" + formatBound(lo) + "," + formatBound(hi) + ")"
}

func formatBound(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}

// NewNumeric builds a binary DHT for a numeric attribute with domain
// [lo, hi), divided at the given cut points (Figure 3 of the paper).
// Cuts must be strictly increasing and lie strictly inside (lo, hi).
// Leaf intervals are [lo,c1), [c1,c2), ..., [cn,hi); adjacent intervals
// are pairwise combined level by level until a single root spans [lo,hi).
// With an odd number of nodes at some level, the trailing node joins the
// last pair (a ternary parent) so that no node ever has a single child.
func NewNumeric(attr string, lo, hi float64, cuts []float64) (*Tree, error) {
	if !(lo < hi) {
		return nil, fmt.Errorf("dht: invalid domain [%v,%v)", lo, hi)
	}
	prev := lo
	for i, c := range cuts {
		if !(c > prev) || !(c < hi) {
			return nil, fmt.Errorf("dht: cut %d (%v) not strictly inside (%v,%v) in order", i, c, prev, hi)
		}
		prev = c
	}
	t := &Tree{attr: attr, numeric: true, byValue: make(map[string]NodeID)}

	bounds := make([]float64, 0, len(cuts)+2)
	bounds = append(bounds, lo)
	bounds = append(bounds, cuts...)
	bounds = append(bounds, hi)

	type span struct{ lo, hi float64 }
	level := make([]span, 0, len(bounds)-1)
	for i := 0; i+1 < len(bounds); i++ {
		level = append(level, span{bounds[i], bounds[i+1]})
	}
	// kids[l][i] lists, for entry i of level l, its child indices in level
	// l-1; the leaf level (l = 0) has empty child lists.
	levels := [][]span{level}
	kids := [][][]int{make([][]int, len(level))}
	for len(levels[len(levels)-1]) > 1 {
		cur := levels[len(levels)-1]
		var next []span
		var nextKids [][]int
		// Pair adjacent spans; when exactly three remain, merge them into
		// one ternary parent so no node ever ends up with a single child.
		// An odd level count always reaches the three-remaining case.
		for i := 0; i < len(cur); i += 2 {
			if i+3 == len(cur) {
				next = append(next, span{cur[i].lo, cur[i+2].hi})
				nextKids = append(nextKids, []int{i, i + 1, i + 2})
				i++ // consumed one extra
			} else {
				next = append(next, span{cur[i].lo, cur[i+1].hi})
				nextKids = append(nextKids, []int{i, i + 1})
			}
		}
		levels = append(levels, next)
		kids = append(kids, nextKids)
	}

	// Materialize nodes top-down so the root gets ID 0.
	type frame struct {
		levelIdx int
		spanIdx  int
		parent   NodeID
		depth    int
	}
	stack := []frame{{len(levels) - 1, 0, None, 0}}
	for len(stack) > 0 {
		f := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		sp := levels[f.levelIdx][f.spanIdx]
		val := IntervalValue(sp.lo, sp.hi)
		if _, dup := t.byValue[val]; dup {
			return nil, fmt.Errorf("dht: duplicate interval %s", val)
		}
		id := NodeID(len(t.nodes))
		t.nodes = append(t.nodes, Node{
			ID: id, Value: val, Parent: f.parent, Depth: f.depth, Lo: sp.lo, Hi: sp.hi,
		})
		t.byValue[val] = id
		if f.parent != None {
			t.nodes[f.parent].Children = append(t.nodes[f.parent].Children, id)
		}
		if f.levelIdx > 0 {
			childIdx := kids[f.levelIdx][f.spanIdx]
			// push in reverse so children materialize left-to-right
			for i := len(childIdx) - 1; i >= 0; i-- {
				stack = append(stack, frame{f.levelIdx - 1, childIdx[i], id, f.depth + 1})
			}
		}
	}
	t.finish()
	return t, nil
}

// NewNumericUniform builds a numeric DHT with equal-width leaf intervals.
// width must evenly divide (hi-lo) to within floating-point tolerance;
// otherwise the last interval is shorter.
func NewNumericUniform(attr string, lo, hi, width float64) (*Tree, error) {
	if width <= 0 {
		return nil, errors.New("dht: width must be positive")
	}
	var cuts []float64
	for c := lo + width; c < hi-1e-9; c += width {
		cuts = append(cuts, c)
	}
	return NewNumeric(attr, lo, hi, cuts)
}

func (t *Tree) finish() {
	t.numLeavesUnder = make([]int, len(t.nodes))
	t.leaves = t.leaves[:0]
	// nodes were appended in DFS preorder, so children follow parents;
	// compute leaf counts bottom-up by reverse scan.
	for i := len(t.nodes) - 1; i >= 0; i-- {
		n := &t.nodes[i]
		if n.IsLeaf() {
			t.numLeavesUnder[i] = 1
		} else {
			sum := 0
			for _, c := range n.Children {
				sum += t.numLeavesUnder[c]
			}
			t.numLeavesUnder[i] = sum
		}
	}
	for i := range t.nodes {
		if t.nodes[i].IsLeaf() {
			t.leaves = append(t.leaves, t.nodes[i].ID)
		}
	}
	t.sibRank = make([]int32, len(t.nodes))
	t.sibCount = make([]int32, len(t.nodes))
	t.sibCount[0] = 1 // the root is its own sole sibling
	t.sorted = make([][]NodeID, len(t.nodes))
	for i := range t.nodes {
		sorted := slices.Clone(t.nodes[i].Children)
		sort.Slice(sorted, func(a, b int) bool { return t.nodes[sorted[a]].Value < t.nodes[sorted[b]].Value })
		t.sorted[i] = sorted
		for rank, c := range sorted {
			t.sibRank[c] = int32(rank)
			t.sibCount[c] = int32(len(sorted))
		}
	}
}

// SiblingRank returns the index of id within SortedSiblings(id) without
// sorting or allocating — the canonical position whose parity carries
// one detection bit per level.
func (t *Tree) SiblingRank(id NodeID) int { return int(t.sibRank[id]) }

// NumSiblings returns len(Siblings(id)) (including id itself) in O(1).
func (t *Tree) NumSiblings(id NodeID) int { return int(t.sibCount[id]) }

// Attr returns the attribute name the tree describes.
func (t *Tree) Attr() string { return t.attr }

// Numeric reports whether the tree is a numeric (interval) DHT.
func (t *Tree) Numeric() bool { return t.numeric }

// Size returns the total number of nodes.
func (t *Tree) Size() int { return len(t.nodes) }

// Root returns the root node ID (always 0 for a non-empty tree).
func (t *Tree) Root() NodeID { return 0 }

// Node returns a read-only view of the node with the given ID.
// It panics on an invalid ID; callers hold IDs only from this tree.
func (t *Tree) Node(id NodeID) *Node {
	return &t.nodes[id]
}

// Valid reports whether id names a node of this tree.
func (t *Tree) Valid(id NodeID) bool {
	return id >= 0 && int(id) < len(t.nodes)
}

// Value returns the canonical value string of a node.
func (t *Tree) Value(id NodeID) string { return t.nodes[id].Value }

// Parent implements the paper's Parent(nd, tr); it returns None for the root.
func (t *Tree) Parent(id NodeID) NodeID { return t.nodes[id].Parent }

// Children implements the paper's Children(nd, tr).
func (t *Tree) Children(id NodeID) []NodeID { return t.nodes[id].Children }

// SortedSiblings returns the paper's Siblings(nd, tr) — id together
// with its siblings; {id} for the root — sorted by node value. This is the
// "sorted set S" used by Permutate and Detection: sorting by value makes
// the order canonical for embedder and detector regardless of tree
// construction order.
func (t *Tree) SortedSiblings(id NodeID) []NodeID {
	p := t.nodes[id].Parent
	if p == None {
		return []NodeID{id}
	}
	return slices.Clone(t.sorted[p])
}

// SortedChildren returns Children(id) sorted by node value. The slice
// is the tree's own, computed once when the tree was built, so the call
// neither sorts nor allocates; callers must treat it as read-only.
func (t *Tree) SortedChildren(id NodeID) []NodeID { return t.sorted[id] }

// Leaves implements the paper's Leaves(tr): all leaf node IDs.
func (t *Tree) Leaves() []NodeID {
	out := make([]NodeID, len(t.leaves))
	copy(out, t.leaves)
	return out
}

// NumLeaves returns the number of leaves of the whole tree (|S| in Eq. 1).
func (t *Tree) NumLeaves() int { return t.numLeavesUnder[0] }

// NumLeavesUnder returns |Si|: the number of leaves in the subtree rooted
// at id (SubTree(nd, tr) of the paper).
func (t *Tree) NumLeavesUnder(id NodeID) int { return t.numLeavesUnder[id] }

// LeavesUnder returns the leaf IDs of the subtree rooted at id.
func (t *Tree) LeavesUnder(id NodeID) []NodeID {
	out := make([]NodeID, 0, t.numLeavesUnder[id])
	var walk func(NodeID)
	walk = func(n NodeID) {
		if t.nodes[n].IsLeaf() {
			out = append(out, n)
			return
		}
		for _, c := range t.nodes[n].Children {
			walk(c)
		}
	}
	walk(id)
	return out
}

// IsAncestorOrSelf reports whether a is an ancestor of b or equal to b.
func (t *Tree) IsAncestorOrSelf(a, b NodeID) bool {
	for cur := b; cur != None; cur = t.nodes[cur].Parent {
		if cur == a {
			return true
		}
	}
	return false
}

// AncestorAtDepth returns the ancestor of id at the requested depth, or
// id itself if its depth equals the request. It errors if depth exceeds
// the node's depth.
func (t *Tree) AncestorAtDepth(id NodeID, depth int) (NodeID, error) {
	if depth < 0 || depth > t.nodes[id].Depth {
		return None, fmt.Errorf("dht: node %q has depth %d, requested %d", t.nodes[id].Value, t.nodes[id].Depth, depth)
	}
	cur := id
	for t.nodes[cur].Depth > depth {
		cur = t.nodes[cur].Parent
	}
	return cur, nil
}

// ByValue returns the node whose canonical value is v.
func (t *Tree) ByValue(v string) (NodeID, bool) {
	id, ok := t.byValue[v]
	return id, ok
}

// LocateNumeric returns the leaf whose interval contains x.
func (t *Tree) LocateNumeric(x float64) (NodeID, error) {
	if !t.numeric {
		return None, fmt.Errorf("dht: %s is not a numeric tree", t.attr)
	}
	root := &t.nodes[0]
	if x < root.Lo || x >= root.Hi || math.IsNaN(x) {
		return None, fmt.Errorf("dht: value %v outside domain [%v,%v)", x, root.Lo, root.Hi)
	}
	cur := NodeID(0)
	for !t.nodes[cur].IsLeaf() {
		next := None
		for _, c := range t.nodes[cur].Children {
			cn := &t.nodes[c]
			if x >= cn.Lo && x < cn.Hi {
				next = c
				break
			}
		}
		if next == None {
			return None, fmt.Errorf("dht: internal gap at %v under %q", x, t.nodes[cur].Value)
		}
		cur = next
	}
	return cur, nil
}

// ResolveValue maps a raw cell value to its tree node. Categorical values
// resolve by exact match. Numeric values resolve by exact match of an
// interval value first (binned data), then by parsing a number and
// locating its leaf interval (raw data).
func (t *Tree) ResolveValue(v string) (NodeID, error) {
	if id, ok := t.byValue[v]; ok {
		return id, nil
	}
	if t.numeric {
		if x, err := strconv.ParseFloat(strings.TrimSpace(v), 64); err == nil {
			return t.LocateNumeric(x)
		}
	}
	return None, fmt.Errorf("dht: value %q not in domain of %s", v, t.attr)
}

// ResolveLeaf is ResolveValue restricted to leaves; it errors if the value
// names an internal (already generalized) node.
func (t *Tree) ResolveLeaf(v string) (NodeID, error) {
	id, err := t.ResolveValue(v)
	if err != nil {
		return None, err
	}
	if !t.nodes[id].IsLeaf() {
		return None, fmt.Errorf("dht: value %q of %s is already generalized", v, t.attr)
	}
	return id, nil
}

// Spec converts the tree back to its declarative form (inverse of
// NewCategorical; numeric trees round-trip through the same shape).
func (t *Tree) Spec() Spec {
	var build func(NodeID) Spec
	build = func(id NodeID) Spec {
		n := &t.nodes[id]
		s := Spec{Value: n.Value, Lo: n.Lo, Hi: n.Hi}
		for _, c := range n.Children {
			s.Children = append(s.Children, build(c))
		}
		return s
	}
	return build(0)
}
