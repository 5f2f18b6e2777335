package dht

import (
	"math/rand"
	"testing"
)

// mergeUp walks up from g with up to steps random merges.
func mergeUp(g GenSet, rng *rand.Rand, steps int) GenSet {
	for i := 0; i < steps; i++ {
		cands := g.MergeCandidates()
		if len(cands) == 0 {
			break
		}
		next, err := g.MergeAt(cands[rng.Intn(len(cands))])
		if err != nil {
			panic(err)
		}
		g = next
	}
	return g
}

// countCap bounds the oracle's enumeration.
const countCap = 5000

// enumCount counts EnumerateBetween's frontiers, stopping at limit
// (limit > 0).
func enumCount(tb testing.TB, lower, upper GenSet, limit int) int {
	tb.Helper()
	n := 0
	if err := EnumerateBetween(lower, upper, func(GenSet) bool {
		n++
		return n < limit
	}); err != nil {
		tb.Fatal(err)
	}
	return n
}

// FuzzCountBetween is the closed-form count's differential: over random
// categorical and numeric trees, bounds and limits, CountBetween equals
// the number of frontiers EnumerateBetween builds, capped at the limit.
// An exhaustive count (limit <= 0) is checked on trees whose lattice
// the oracle can enumerate. Every call makes at most one allocation.
func FuzzCountBetween(f *testing.F) {
	for _, seed := range []int64{0, 1, 7, 42, 1234} {
		f.Add(seed, int16(0))
		f.Add(seed, int16(-1))
		f.Add(seed, int16(3))
		f.Add(seed, int16(4097))
	}
	f.Fuzz(func(t *testing.T, seed int64, limit int16) {
		rng := rand.New(rand.NewSource(seed))
		var tree *Tree
		if seed%3 == 0 {
			var err error
			if tree, err = NewNumericUniform("num", 0, float64(2+rng.Intn(60)), 1); err != nil {
				t.Fatal(err)
			}
		} else {
			tree = randomTree(rng)
		}
		lower := mergeUp(LeafGenSet(tree), rng, rng.Intn(tree.Size()))
		upper := mergeUp(lower, rng, rng.Intn(tree.Size()+1))

		truth := enumCount(t, lower, upper, countCap)
		lim := int(limit)
		if lim <= 0 && truth == countCap {
			lim = countCap // too many frontiers to enumerate exhaustively
		}
		want := truth
		if lim > 0 {
			want = enumCount(t, lower, upper, min(lim, countCap))
		}
		got, err := CountBetween(lower, upper, lim)
		if err != nil {
			t.Fatal(err)
		}
		if lim > countCap && got >= countCap {
			return // beyond the oracle's reach; the capped cases pin it
		}
		if got != want {
			t.Fatalf("tree %d nodes, lower %v, upper %v, limit %d: CountBetween = %d, enumeration %d",
				tree.Size(), lower, upper, lim, got, want)
		}
		if allocs := testing.AllocsPerRun(5, func() {
			if _, err := CountBetween(lower, upper, lim); err != nil {
				t.Fatal(err)
			}
		}); allocs > 1 {
			t.Fatalf("CountBetween made %v allocations, want <= 1", allocs)
		}
	})
}

// TestCountBetweenSaturates pins the saturation contract on a lattice
// far beyond any enumeration: a 256-leaf numeric tree counted between
// its leaves and its root reports exactly the limit, and an unlimited
// count saturates at the largest int instead of overflowing.
func TestCountBetweenSaturates(t *testing.T) {
	tree, err := NewNumericUniform("num", 0, 256, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, limit := range []int{1, 2, 4097, 1 << 40} {
		if n, err := CountBetween(LeafGenSet(tree), RootGenSet(tree), limit); err != nil || n != limit {
			t.Errorf("limit %d: CountBetween = %d, %v", limit, n, err)
		}
	}
	if n, err := CountBetween(LeafGenSet(tree), RootGenSet(tree), 0); err != nil || n != int(^uint(0)>>1) {
		t.Errorf("unlimited: CountBetween = %d, %v; want the largest int", n, err)
	}
	if _, err := CountBetween(RootGenSet(tree), LeafGenSet(tree), 0); err == nil {
		t.Error("reversed bounds accepted")
	}
}
