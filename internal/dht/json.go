package dht

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"

	"repro/internal/jsondoc"
)

// Doc is the portable serialized form of a Tree.
type Doc struct {
	Attr    string `json:"attr"`
	Numeric bool   `json:"numeric,omitempty"`
	Root    Spec   `json:"root"`
}

// Doc returns the serializable form of the tree.
func (t *Tree) Doc() Doc {
	return Doc{Attr: t.attr, Numeric: t.numeric, Root: t.Spec()}
}

// MarshalJSON serializes the tree as its Doc.
func (t *Tree) MarshalJSON() ([]byte, error) {
	return json.Marshal(t.Doc())
}

// FromDoc rebuilds a tree from its serialized form, revalidating all
// structural invariants (unique values; for numeric trees, children must
// exactly partition their parent's interval).
func FromDoc(d Doc) (*Tree, error) {
	if !d.Numeric {
		return NewCategorical(d.Attr, d.Root)
	}
	t := &Tree{attr: d.Attr, numeric: true, byValue: make(map[string]NodeID)}
	if err := t.addSpec(d.Root, None, 0); err != nil {
		return nil, err
	}
	t.finish()
	if err := t.validateIntervals(t.Root()); err != nil {
		return nil, err
	}
	return t, nil
}

// ParseTree decodes one JSON Doc into a Tree. Unknown fields and
// trailing data are refused: a tree decides every generalization, so a
// half-understood document must not pass.
func ParseTree(data []byte) (*Tree, error) {
	var d Doc
	if err := jsondoc.Decode(bytes.NewReader(data), &d, true); err != nil {
		return nil, fmt.Errorf("dht: decoding tree: %w", err)
	}
	return FromDoc(d)
}

func (t *Tree) validateIntervals(id NodeID) error {
	n := t.Node(id)
	if !(n.Lo < n.Hi) {
		return fmt.Errorf("dht: node %q has empty interval [%v,%v)", n.Value, n.Lo, n.Hi)
	}
	if n.Value != IntervalValue(n.Lo, n.Hi) {
		return fmt.Errorf("dht: node %q does not match its interval [%v,%v)", n.Value, n.Lo, n.Hi)
	}
	if n.IsLeaf() {
		return nil
	}
	cursor := n.Lo
	for _, c := range n.Children {
		cn := t.Node(c)
		if math.Abs(cn.Lo-cursor) > 1e-9 {
			return fmt.Errorf("dht: children of %q leave gap at %v", n.Value, cursor)
		}
		cursor = cn.Hi
		if err := t.validateIntervals(c); err != nil {
			return err
		}
	}
	if math.Abs(cursor-n.Hi) > 1e-9 {
		return fmt.Errorf("dht: children of %q do not reach %v", n.Value, n.Hi)
	}
	return nil
}
