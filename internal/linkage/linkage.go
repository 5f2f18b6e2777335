// Package linkage implements the re-identification attack that motivates
// the paper's privacy half (§1): "re-identification by linking attributes
// such as birth date, zip code that are shared by the anonymized medical
// data and some externally collected voting records". The adversary holds
// an external identified table (a voter roll: name/SSN plus the
// quasi-identifying attributes) and joins it against the published
// medical table on the quasi-identifiers. A published tuple whose
// quasi-combination matches exactly one external individual is
// re-identified.
//
// Binning defeats the attack by construction: after k-anonymization every
// published combination covers at least k tuples, so no join can narrow a
// record to one person — the best the adversary gets is a 1/k-confidence
// candidate set. This package measures exactly that, before and after
// protection.
package linkage

import (
	"encoding/binary"
	"fmt"

	"repro/internal/dht"
	"repro/internal/relation"
)

// Result quantifies a linking attack.
type Result struct {
	// Published is the number of tuples in the published table.
	Published int
	// Matched counts published tuples whose quasi-combination matches at
	// least one external individual.
	Matched int
	// ReIdentified counts published tuples pinned to exactly one external
	// individual — full identity disclosure.
	ReIdentified int
	// MaxCandidates and MinCandidates bound the candidate-set sizes over
	// matched tuples; MinCandidates == 1 means someone was re-identified.
	MinCandidates, MaxCandidates int
}

// Rate returns the fraction of published tuples that were re-identified.
func (r Result) Rate() float64 {
	if r.Published == 0 {
		return 0
	}
	return float64(r.ReIdentified) / float64(r.Published)
}

// String summarizes the attack outcome.
func (r Result) String() string {
	return fmt.Sprintf("%d/%d tuples re-identified (%.1f%%), candidate sets %d..%d",
		r.ReIdentified, r.Published, r.Rate()*100, r.MinCandidates, r.MaxCandidates)
}

// Attack joins the published table against the external identified table
// on the given quasi-identifying columns. Because the published data may
// be generalized, matching is hierarchical: an external individual
// matches a published tuple if, for every column, the individual's
// (specific) value falls under the published (possibly generalized)
// value in that column's DHT.
//
// trees maps each join column to its DHT; external values must resolve to
// tree nodes (typically leaves), published values to any node.
func Attack(published, external *relation.Table, cols []string, trees map[string]*dht.Tree) (Result, error) {
	var res Result
	if len(cols) == 0 {
		return res, fmt.Errorf("linkage: no join columns")
	}
	pubIdx := make([]int, len(cols))
	extIdx := make([]int, len(cols))
	for i, col := range cols {
		var err error
		if pubIdx[i], err = published.Schema().Index(col); err != nil {
			return res, err
		}
		if extIdx[i], err = external.Schema().Index(col); err != nil {
			return res, err
		}
		if trees[col] == nil {
			return res, fmt.Errorf("linkage: no tree for join column %s", col)
		}
	}

	// Index external individuals by their leaf-node path per column:
	// for candidate counting we register each individual under every
	// (column, ancestor) pair lazily via a per-column map from node ID to
	// the set of external rows below it. Values resolve once per distinct
	// dictionary entry; rows register by integer code. The join then
	// intersects.
	perColRows := make([]map[dht.NodeID][]int32, len(cols))
	for ci, col := range cols {
		tree := trees[col]
		dict := external.DictValues(extIdx[ci])
		codes := external.Codes(extIdx[ci])
		idOf := make([]dht.NodeID, len(dict))
		resolved := make([]bool, len(dict))
		errOf := make([]error, len(dict))
		m := make(map[dht.NodeID][]int32)
		for row, code := range codes {
			if !resolved[code] {
				resolved[code] = true
				idOf[code], errOf[code] = tree.ResolveValue(dict[code])
			}
			if err := errOf[code]; err != nil {
				return res, fmt.Errorf("linkage: external row %d column %s: %w", row, col, err)
			}
			// register under the node and all its ancestors
			for cur := idOf[code]; cur != dht.None; cur = tree.Parent(cur) {
				m[cur] = append(m[cur], int32(row))
			}
		}
		perColRows[ci] = m
	}

	res.Published = published.NumRows()
	res.MinCandidates = -1
	// Published values also resolve per distinct dictionary entry; an
	// out-of-domain value means "no candidates", not an error.
	pubIDs := make([][]dht.NodeID, len(cols))
	pubOK := make([][]bool, len(cols))
	for ci, col := range cols {
		tree := trees[col]
		dict := published.DictValues(pubIdx[ci])
		pubIDs[ci] = make([]dht.NodeID, len(dict))
		pubOK[ci] = make([]bool, len(dict))
		for code, v := range dict {
			if id, err := tree.ResolveValue(v); err == nil {
				pubIDs[ci][code], pubOK[ci][code] = id, true
			}
		}
	}
	// candidateCount is the size of a published row's candidate set: the
	// intersection over the join columns of the external rows under the
	// published node.
	candidateCount := func(row int) int {
		var candidates []int32
		for ci, col := range pubIdx {
			code := published.CodeAt(row, col)
			if !pubOK[ci][code] {
				return 0
			}
			rows := perColRows[ci][pubIDs[ci][code]]
			if ci == 0 {
				candidates = rows
				continue
			}
			if candidates = intersect(candidates, rows); len(candidates) == 0 {
				return 0
			}
		}
		return len(candidates)
	}
	// Rows with the same published code tuple have the same candidate
	// set, so its size is computed once per distinct tuple.
	countOf := make(map[string]int)
	var key []byte
	for row := 0; row < published.NumRows(); row++ {
		key = key[:0]
		for ci := range cols {
			key = binary.AppendUvarint(key, uint64(published.CodeAt(row, pubIdx[ci])))
		}
		n, seen := countOf[string(key)]
		if !seen {
			n = candidateCount(row)
			countOf[string(key)] = n
		}
		if n == 0 {
			continue
		}
		res.Matched++
		if n == 1 {
			res.ReIdentified++
		}
		if res.MinCandidates < 0 || n < res.MinCandidates {
			res.MinCandidates = n
		}
		res.MaxCandidates = max(res.MaxCandidates, n)
	}
	if res.MinCandidates < 0 {
		res.MinCandidates = 0
	}
	return res, nil
}

// intersect returns the sorted intersection of two ascending row lists.
func intersect(a, b []int32) []int32 {
	var out []int32
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

// ExternalView extracts the adversary's knowledge from an original table:
// the identifying columns plus the chosen quasi columns — a stand-in for
// the "externally collected voting records" of the paper's example.
func ExternalView(original *relation.Table, identCol string, cols []string) (*relation.Table, error) {
	schemaCols := []relation.Column{{Name: identCol, Kind: relation.Identifying}}
	for _, c := range cols {
		schemaCols = append(schemaCols, relation.Column{Name: c, Kind: relation.QuasiCategorical})
	}
	schema, err := relation.NewSchema(schemaCols)
	if err != nil {
		return nil, err
	}
	// A columnar projection: the adversary's view copies dictionaries and
	// code vectors wholesale, no per-cell decoding.
	return original.Project(schema)
}
