package binning

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"math/bits"
	"slices"

	"repro/internal/dht"
	"repro/internal/pool"
)

// The incremental greedy lattice ascent.
//
// The rescan ascent pays three full-table passes per merge to re-derive
// the violating frontier members. But a merge changes the joint
// histogram in a purely local way: the only bins that move are those
// whose merged-column component is one of the merged parent's children,
// and they move to the bin keyed by the parent — MergeCandidates only
// offers parents whose children are all frontier members, so the set of
// covered leaves is invariant under the ascent and every other key
// component is untouched. multiGreedy therefore groups the tuples once,
// into the joint histogram's bins keyed by per-column covering
// NodeIDs+1 packed into the sketch's keyLayout (stable across merges,
// unlike frontier member indices).
//
// Beside the bins it keeps, per column and component, the number of
// bins below k: a member violates exactly when its count is non-zero,
// so the move selection reads the sets the rescan derives without
// touching a bin, and takes the identical merge sequence: same
// frontier, same stats, byte-identical downstream output.
//
// The bins live in a slab sized once, with a posting index per column
// from key component to the slots carrying it (binSlab). A merge reads
// only the lists of the merged parent's children, so it costs the bins
// it moves, not the live set: they move their thin counts and re-key to
// the parent, an open-addressing table groups those that collide (no
// bin carries the parent before the merge, so only moved bins can), and
// each group's sum stays in the slot of its first bin while the others
// become tombstones. A group keeps its slot, so its entries in the other
// columns' lists stay valid and only the merged column's index changes:
// the parent's list is appended to that column's postings, packing its
// lists to the front when they fill. Walks skip the tombstones they
// meet; once tombstones pass half the slab it compacts and every column
// re-indexes.

// greedyMove is one candidate lattice step.
type greedyMove struct {
	ci     int
	parent dht.NodeID
	delta  float64
	helps  bool
}

// betterGreedyMove is the rescan ascent's strict move order: helping
// moves first, then smallest specificity-loss increase, then the
// deterministic (column, parent) tie-break.
func betterGreedyMove(a, b *greedyMove) bool {
	if a.helps != b.helps {
		return a.helps
	}
	if a.delta != b.delta {
		return a.delta < b.delta
	}
	if a.ci != b.ci {
		return a.ci < b.ci
	}
	return a.parent < b.parent
}

// coverNodes maps every key field of gen's tree — a node's NodeID+1 —
// to its covering frontier member's field shifted into place, or to 0
// when the node is uncovered.
func coverNodes(gen dht.GenSet, shift uint) []uint64 {
	tree := gen.Tree()
	table := make([]uint64, tree.Size()+1)
	for _, m := range gen.Nodes() {
		field := (uint64(m) + 1) << shift
		for _, leaf := range tree.LeavesUnder(m) {
			table[leaf+1] = field
		}
		table[m+1] = field
	}
	return table
}

// jointBin is one bin of the joint histogram: its packed key and
// weight.
type jointBin struct {
	key uint64
	n   int
}

// binTable is an open-addressing index from packed joint-bin keys to
// positions in a slice of bins: position+1, or 0 for an empty entry. Its
// length is a power of two and it stays at most half full; a Fibonacci
// hash takes the probe start from the top bits of key·φ·2⁶⁴, which
// every field of the packed key reaches.
type binTable struct {
	slots []int32
	shift uint // 64 - log2(len(slots))
}

// reset empties t for n keys without a doubling, reusing its storage.
func (t *binTable) reset(n int) {
	size := 16
	for size < 2*n {
		size *= 2
	}
	if cap(t.slots) < size {
		t.slots = make([]int32, size)
	} else {
		t.slots = t.slots[:size]
		clear(t.slots)
	}
	t.shift = 64 - uint(bits.TrailingZeros(uint(size)))
}

// find returns the position of the bin keyed key in bins or, when there
// is none, -1 and the entry at which to record it.
func (t *binTable) find(bins []jointBin, key uint64) (slot int32, entry int) {
	mask := len(t.slots) - 1
	for i := int(key * 0x9e3779b97f4a7c15 >> t.shift); ; i = (i + 1) & mask {
		s := t.slots[i]
		if s == 0 {
			return -1, i
		}
		if bins[s-1].key == key {
			return s - 1, 0
		}
	}
}

// add sums weight n into the bin keyed key, appending the bin to bins
// when it is new, and returns bins. The table doubles when it would pass
// half full, so it must index exactly bins; bins then grows with it, to
// the capacity the doubled table can index.
func (t *binTable) add(bins []jointBin, key uint64, n int) []jointBin {
	s, e := t.find(bins, key)
	if s >= 0 {
		bins[s].n += n
		return bins
	}
	if 2*(len(bins)+1) > len(t.slots) {
		t.reset(len(t.slots))
		for i, bin := range bins {
			_, e := t.find(bins[:i], bin.key)
			t.slots[e] = int32(i) + 1
		}
		_, e = t.find(bins, key)
		if cap(bins) < len(t.slots)/2 {
			bins = append(make([]jointBin, 0, len(t.slots)/2), bins...)
		}
	}
	t.slots[e] = int32(len(bins)) + 1
	return append(bins, jointBin{key, n})
}

// group returns the joint bins of st's tuples under the frontiers behind
// cover (one coverNodes table per column), in a slice of len(st.tuples)
// capacity: it re-keys every tuple, then groups them in place through
// tab (reset by the caller), each group landing at or before the first
// of its tuples. Counts are weight sums, so the bins do not depend on
// tuple order. Keying first keeps the grouping loop's table probes
// independent of each other, so they overlap. A tuple whose leaf the
// frontiers leave uncovered is an error.
func (st *sketchTuples) group(ctx context.Context, cover [][]uint64, tab *binTable) ([]jointBin, error) {
	bins := make([]jointBin, len(st.tuples))
	for i, t := range st.tuples {
		if err := pool.CtxAt(ctx, i); err != nil {
			return nil, err
		}
		var key uint64
		for ci, cov := range cover {
			field := st.layout.field(t.key, ci)
			if cov[field] == 0 {
				tree := st.trees[ci]
				v := tree.Value(dht.NodeID(field - 1))
				return nil, fmt.Errorf("binning: column %s value %q: %w", st.cols[ci], v,
					fmt.Errorf("dht: value %q sits above the generalization frontier of %s", v, tree.Attr()))
			}
			key |= cov[field]
		}
		bins[i] = jointBin{key, t.n}
	}
	grouped := bins[:0]
	for i, bin := range bins {
		if err := pool.CtxAt(ctx, i); err != nil {
			return nil, err
		}
		grouped = tab.add(grouped, bin.key, bin.n)
	}
	return grouped, nil
}

// deadBin is the weight of a tombstoned slab slot.
const deadBin = -1

// binSlab is the incremental ascent's joint histogram: the bins in a
// slab, a posting index per column from key component to slots, and the
// per-column counts of bins below k.
type binSlab struct {
	layout keyLayout
	k      int
	bins   []jointBin
	// post[ci][off[ci][comp]:off[ci][comp]+size[ci][comp]] lists the
	// slots whose column-ci component is comp; a list may hold
	// tombstones. A merge appends the parent's list to post[ci] within
	// its fixed capacity.
	post, off, size [][]int32
	// thin[ci][comp] counts the live bins below k whose column-ci
	// component is comp.
	thin [][]int
	// moved and from are a merge's scratch: the moved bins, re-keyed,
	// and their slots.
	moved []jointBin
	from  []int32
	tab   binTable
	// dead counts the tombstones in the slab; compactions, packs and
	// deadVisits count the compactions, the postings packed to make room
	// and the tombstones merges met in their walks.
	dead, compactions, packs, deadVisits int
}

// newBinSlab indexes the grouped bins of the minimal frontiers over
// trees. The slab keeps bins' storage and the table; each column's
// postings get half the initial bins again as headroom for merges.
func newBinSlab(layout keyLayout, trees []*dht.Tree, k int, bins []jointBin, tab binTable) *binSlab {
	nc := len(trees)
	sl := &binSlab{layout: layout, k: k, bins: bins, tab: tab,
		post: make([][]int32, nc), off: make([][]int32, nc), size: make([][]int32, nc), thin: make([][]int, nc)}
	for ci, tree := range trees {
		sl.post[ci] = make([]int32, 0, len(bins)+len(bins)/2)
		sl.off[ci] = make([]int32, tree.Size()+1)
		sl.size[ci] = make([]int32, tree.Size()+1)
		sl.thin[ci] = make([]int, tree.Size()+1)
	}
	for ci := range trees {
		sl.index(ci)
	}
	for _, bin := range bins {
		if bin.n < k {
			sl.markThin(bin, 1)
		}
	}
	return sl
}

// index rebuilds column ci's postings over the slab, which holds no
// tombstones, by a counting sort on the column's component: each list
// in slot order.
func (sl *binSlab) index(ci int) {
	size, off, post := sl.size[ci], sl.off[ci], sl.post[ci][:len(sl.bins)]
	shift, mask := sl.layout[ci], uint64(1)<<(sl.layout[ci+1]-sl.layout[ci])-1
	clear(size)
	for _, bin := range sl.bins {
		size[bin.key>>shift&mask]++
	}
	at := int32(0)
	for comp, n := range size {
		off[comp] = at
		at += n
	}
	for s, bin := range sl.bins {
		comp := bin.key >> shift & mask
		post[off[comp]] = int32(s)
		off[comp]++
	}
	for comp, n := range size {
		off[comp] -= n
	}
	sl.post[ci] = post
}

// thinBit is 1 when a bin of weight n is below k and 0 otherwise.
func thinBit(n, k int) int {
	if n < k {
		return 1
	}
	return 0
}

// markThin adds d to the thin counts of bin's components.
func (sl *binSlab) markThin(bin jointBin, d int) {
	for ci, thin := range sl.thin {
		thin[sl.layout.field(bin.key, ci)] += d
	}
}

// violating reports whether a live bin below k has a covered component.
func (sl *binSlab) violating() bool {
	for _, thin := range sl.thin {
		if slices.ContainsFunc(thin[1:], func(n int) bool { return n > 0 }) {
			return true
		}
	}
	return false
}

// merge re-keys the bins whose column-ci component is one of children to
// the component of parent p. It gathers them from the children's lists,
// then groups those that collide through the table: each group keeps the
// slot of its first bin, the others become tombstones, and the groups
// form p's list. Gathering and grouping are separate loops, so the
// random slab and table accesses of one bin overlap those of the next.
// The thin counts follow: a bin below k moves its column-ci count to p,
// and a collision recounts the key it shares with its group. When p's
// list would overflow its postings' capacity, column ci's lists pack to
// the front first; once tombstones pass half the slab, it compacts.
func (sl *binSlab) merge(ci int, p dht.NodeID, children []dht.NodeID) {
	off, size, thin := sl.off[ci], sl.size[ci], sl.thin[ci]
	shift, width := sl.layout[ci], sl.layout[ci+1]-sl.layout[ci]
	field, comp := (uint64(1)<<width-1)<<shift, uint64(p)+1
	n := 0
	for _, c := range children {
		n += int(size[c+1])
	}
	moved, from := slices.Grow(sl.moved[:0], n), slices.Grow(sl.from[:0], n)
	for _, c := range children {
		for _, s := range sl.post[ci][off[c+1] : off[c+1]+size[c+1]] {
			bin := sl.bins[s]
			if bin.n == deadBin {
				sl.deadVisits++
				continue
			}
			if bin.n < sl.k {
				thin[c+1]--
				thin[comp]++
			}
			bin.key = bin.key&^field | comp<<shift
			sl.bins[s].key = bin.key
			moved = append(moved, bin)
			from = append(from, s)
		}
		size[c+1] = 0
	}
	sl.tab.reset(len(moved))
	groups := len(moved)
	for x, bin := range moved {
		g, e := sl.tab.find(moved, bin.key)
		if g < 0 {
			sl.tab.slots[e] = int32(x) + 1
			continue
		}
		// The key's thin counts change by the group's verdict after the
		// collision less the two before it.
		group := &moved[g]
		d := thinBit(group.n+bin.n, sl.k) - thinBit(group.n, sl.k) - thinBit(bin.n, sl.k)
		group.n += bin.n
		moved[x].n = deadBin
		sl.bins[from[g]].n, sl.bins[from[x]].n = group.n, deadBin
		if d != 0 {
			sl.markThin(*group, d)
		}
		groups--
	}
	sl.dead += len(moved) - groups
	sl.moved, sl.from = moved, from

	// Every slot sits in at most one of column ci's lists and the moved
	// ones left theirs, so once packed the postings hold the groups.
	if len(sl.post[ci])+groups > cap(sl.post[ci]) {
		sl.packs++
		sl.pack(ci)
	}
	post := sl.post[ci]
	off[comp], size[comp] = int32(len(post)), int32(groups)
	for x, bin := range moved {
		if bin.n != deadBin {
			post = append(post, from[x])
		}
	}
	sl.post[ci] = post
	if 2*sl.dead > len(sl.bins) {
		sl.compact()
	}
}

// pack moves column ci's lists to the front of its postings, in offset
// order so that no list is overwritten before it moves.
func (sl *binSlab) pack(ci int) {
	post, off, size := sl.post[ci], sl.off[ci], sl.size[ci]
	comps := make([]int, 0, len(off))
	for comp, n := range size {
		if n > 0 {
			comps = append(comps, comp)
		}
	}
	slices.SortFunc(comps, func(a, b int) int { return cmp.Compare(off[a], off[b]) })
	packed := post[:0]
	for _, comp := range comps {
		start := int32(len(packed))
		packed = append(packed, post[off[comp]:off[comp]+size[comp]]...)
		off[comp] = start
	}
	sl.post[ci] = packed
}

// compact drops the tombstones, keeping the slab's storage, and
// re-indexes every column.
func (sl *binSlab) compact() {
	sl.bins = slices.DeleteFunc(sl.bins, func(bin jointBin) bool { return bin.n == deadBin })
	sl.dead = 0
	sl.compactions++
	for ci := range sl.post {
		sl.index(ci)
	}
}

// minLive returns the smallest live bin, or math.MaxInt for none.
func (sl *binSlab) minLive() int {
	least := math.MaxInt
	for _, bin := range sl.bins {
		if bin.n != deadBin {
			least = min(least, bin.n)
		}
	}
	return least
}

// minLiveAt returns the smallest live bin whose column-ci component is
// comp, or math.MaxInt for none.
func (sl *binSlab) minLiveAt(ci int, comp uint64) int {
	least := math.MaxInt
	off, size := sl.off[ci][comp], sl.size[ci][comp]
	for _, s := range sl.post[ci][off : off+size] {
		if n := sl.bins[s].n; n != deadBin {
			least = min(least, n)
		}
	}
	return least
}

// stepHolds returns the largest threshold at which an ascent step over
// the slab's bins still chooses move among the memoized candidates: k
// when move does not help, else the smallest live bin under the
// children of the candidates ranked before it, none of which helps at
// k.
func (sl *binSlab) stepHolds(move *greedyMove, memo [][]greedyMoveCand, trees []*dht.Tree) int {
	if !move.helps {
		return sl.k
	}
	least := math.MaxInt
	for ci, cands := range memo {
		for _, cand := range cands {
			if !betterGreedyMove(&greedyMove{ci: ci, parent: cand.parent, delta: cand.delta, helps: true}, move) {
				continue
			}
			for _, c := range trees[ci].Children(cand.parent) {
				least = min(least, sl.minLiveAt(ci, uint64(c)+1))
			}
		}
	}
	return least
}

// greedyMoveCand is one memoized candidate merge of a column: the
// parent and its specificity-loss increase. Both are functions of the
// column's frontier alone, so the list is invalidated only when that
// column merges; whether the move helps depends on the current
// violating sets and is re-derived per iteration.
type greedyMoveCand struct {
	parent dht.NodeID
	delta  float64
}

// multiGreedy ascends the lattice from the minimal frontiers by the
// rescan ascent's move order until no bin below k has a covered
// component, over the joint histogram of st's tuples.
func multiGreedy(
	ctx context.Context,
	st *sketchTuples,
	mingends, maxgends map[string]dht.GenSet,
	k int,
	stats *MultiStats,
	holds *int,
) (map[string]dht.GenSet, MultiStats, error) {
	out, _, err := greedyAscent(ctx, st, mingends, maxgends, k, stats, holds)
	return out, *stats, err
}

// greedyAscent is multiGreedy, also returning its slab for inspection.
//
// A non-nil holds is lowered to the largest threshold k' at which the
// ascent provably takes the same moves. The bins do not depend on the
// threshold, and a move that helps at k helps at every k' > k, so the
// k' ascent repeats a step whose chosen move helps at k as long as no
// candidate ranked before it by (delta, column, parent) — none of which
// helps at k — starts to help: as long as k' stays at or below the
// smallest live bin under those candidates' children. A step whose
// chosen move does not help caps holds at k, and the k' ascent stops
// where this one does while k' stays at or below the smallest live bin.
func greedyAscent(
	ctx context.Context,
	st *sketchTuples,
	mingends, maxgends map[string]dht.GenSet,
	k int,
	stats *MultiStats,
	holds *int,
) (map[string]dht.GenSet, *binSlab, error) {
	if len(st.tuples) >= math.MaxInt32 {
		return nil, nil, fmt.Errorf("binning: %d tuples overflow the greedy ascent's int32 slots", len(st.tuples))
	}
	cols := st.cols
	cur := make([]dht.GenSet, len(cols))
	cover := make([][]uint64, len(cols))
	trees := make([]*dht.Tree, len(cols))
	for ci, col := range cols {
		cur[ci] = mingends[col]
		cover[ci] = coverNodes(cur[ci], st.layout[ci])
		trees[ci] = cur[ci].Tree()
	}
	var tab binTable
	tab.reset(len(st.tuples))
	bins, err := st.group(ctx, cover, &tab)
	if err != nil {
		return nil, nil, err
	}
	sl := newBinSlab(st.layout, trees, k, bins, tab)

	memo := make([][]greedyMoveCand, len(cols))
	for {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		// The ascent stops once no bin below k has a covered component.
		if !sl.violating() {
			if holds != nil {
				*holds = min(*holds, sl.minLive())
			}
			break
		}

		// Candidate moves: parents and deltas come from the per-column
		// memo; once a helping move is at hand, non-helping candidates
		// cannot win and are pruned without evaluation.
		var bestMove *greedyMove
		for ci, col := range cols {
			tree := cur[ci].Tree()
			if memo[ci] == nil {
				list := make([]greedyMoveCand, 0, 8)
				for _, p := range cur[ci].MergeCandidates() {
					if _, ok := maxgends[col].CoverOf(p); !ok {
						continue // would climb past the usage metrics
					}
					delta := float64(len(tree.Children(p))-1) / float64(tree.NumLeaves())
					list = append(list, greedyMoveCand{parent: p, delta: delta})
				}
				memo[ci] = list
			}
			for _, cand := range memo[ci] {
				helps := false
				for _, c := range tree.Children(cand.parent) {
					if sl.thin[ci][c+1] > 0 {
						helps = true
						break
					}
				}
				if bestMove != nil && bestMove.helps && !helps {
					continue
				}
				m := &greedyMove{ci: ci, parent: cand.parent, delta: cand.delta, helps: helps}
				if bestMove == nil || betterGreedyMove(m, bestMove) {
					bestMove = m
				}
			}
		}
		if bestMove == nil {
			return nil, nil, fmt.Errorf(
				"binning: greedy ascent exhausted at k=%d without satisfying k-anonymity: %w", k, ErrUnsatisfiable)
		}

		if holds != nil && *holds > k {
			*holds = min(*holds, sl.stepHolds(bestMove, memo, trees))
		}

		ci, p := bestMove.ci, bestMove.parent
		next, err := cur[ci].MergeAt(p)
		if err != nil {
			return nil, nil, fmt.Errorf("binning: internal: %w", err)
		}
		cur[ci] = next
		sl.merge(ci, p, next.Tree().Children(p))
		memo[ci] = nil
		stats.GreedyMerges++
	}

	out := make(map[string]dht.GenSet, len(cols))
	for ci, col := range cols {
		out[col] = cur[ci]
	}
	return out, sl, nil
}
