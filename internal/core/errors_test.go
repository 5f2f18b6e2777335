package core

import (
	"context"
	"errors"
	"fmt"
	"math/bits"
	"testing"

	"repro/internal/binning"
	"repro/internal/crypt"
	"repro/internal/dht"
	"repro/internal/ontology"
	"repro/internal/relation"
)

// tooWideSchema returns trees and a 20-row table whose quasi columns all
// use the doctor tree, one column more than a 64-bit joint-bin key holds.
func tooWideSchema(t *testing.T) (map[string]*dht.Tree, *relation.Table) {
	t.Helper()
	doctor := ontology.Doctor()
	n := 64/bits.Len(uint(doctor.Size())) + 1
	cols := []relation.Column{{Name: "ssn", Kind: relation.Identifying}}
	trees := make(map[string]*dht.Tree, n)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("q%d", i)
		cols = append(cols, relation.Column{Name: name, Kind: relation.QuasiCategorical})
		trees[name] = doctor
	}
	tbl := relation.NewTable(relation.MustSchema(cols...))
	leaves := doctor.Leaves()
	for r := 0; r < 20; r++ {
		row := []string{fmt.Sprint(100000 + r)}
		for i := 0; i < n; i++ {
			row = append(row, doctor.Value(leaves[(r+i)%len(leaves)]))
		}
		if err := tbl.AppendRow(row); err != nil {
			t.Fatal(err)
		}
	}
	return trees, tbl
}

// TestSentinelErrors pins the errors.Is contract the service layer
// depends on: every classifiable failure wraps exactly one sentinel, so
// HTTP status mapping needs no string matching.
func TestSentinelErrors(t *testing.T) {
	trees := ontology.Trees()
	key := crypt.NewWatermarkKeyFromSecret("owner", 25)

	t.Run("bad config", func(t *testing.T) {
		if _, err := New(trees, Config{K: 0}); !errors.Is(err, ErrBadConfig) {
			t.Fatalf("K=0: got %v, want ErrBadConfig", err)
		}
		if _, err := New(nil, Config{K: 5}); !errors.Is(err, ErrBadConfig) {
			t.Fatalf("no trees: got %v, want ErrBadConfig", err)
		}
		if _, err := New(trees, Config{K: 5, NoColumnSalt: true, SaltPositionWithColumn: true}); !errors.Is(err, ErrBadConfig) {
			t.Fatalf("salt conflict: got %v, want ErrBadConfig", err)
		}
	})

	t.Run("bad key", func(t *testing.T) {
		fw := testFramework(t)
		tbl := testData(t, 200)
		bad := key
		bad.K2 = bad.K1 // the paper forbids correlated subkeys
		if _, err := fw.ProtectContext(context.Background(), tbl, bad); !errors.Is(err, ErrBadKey) {
			t.Fatalf("K1=K2: got %v, want ErrBadKey", err)
		}
		if _, err := fw.DetectContext(context.Background(), tbl, Provenance{}, bad); !errors.Is(err, ErrBadKey) {
			t.Fatalf("detect with K1=K2: got %v, want ErrBadKey", err)
		}
	})

	t.Run("bad schema", func(t *testing.T) {
		fw, err := New(trees, Config{K: 5, IdentCol: "no_such_column"})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := fw.ProtectContext(context.Background(), testData(t, 200), key); !errors.Is(err, ErrBadSchema) {
			t.Fatalf("missing ident col: got %v, want ErrBadSchema", err)
		}

		// Both planners refuse a quasi column without a DHT, and a schema
		// whose joint-bin key needs more than 64 bits.
		noDoctor := ontology.Trees()
		delete(noDoctor, ontology.ColDoctor)
		wideTrees, wide := tooWideSchema(t)
		for name, c := range map[string]struct {
			trees map[string]*dht.Tree
			tbl   *relation.Table
		}{
			"no DHT":      {noDoctor, testData(t, 200)},
			"64-bit keys": {wideTrees, wide},
		} {
			fw, err := New(c.trees, Config{K: 5})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := fw.ProtectContext(context.Background(), c.tbl, key); !errors.Is(err, ErrBadSchema) {
				t.Fatalf("%s: Protect got %v, want ErrBadSchema", name, err)
			}
			if _, err := fw.PlanStream(context.Background(), c.tbl.Segments(0), key); !errors.Is(err, ErrBadSchema) {
				t.Fatalf("%s: PlanStream got %v, want ErrBadSchema", name, err)
			}
		}

		// A disputed table without the identifying column or a
		// watermarked column is refused as detect refuses it, whatever
		// the claims: also when no claim's key decrypts the identifiers,
		// so none reaches detection.
		fw = testFramework(t)
		prot, err := fw.ProtectContext(context.Background(), testData(t, 300), key)
		if err != nil {
			t.Fatal(err)
		}
		wrong := crypt.NewWatermarkKeyFromSecret("not-the-owner", 25)
		for _, drop := range []string{ontology.ColAge, prot.Provenance.IdentCol} {
			var kept []relation.Column
			for _, col := range columnsOf(prot.Table.Schema()) {
				if col.Name != drop {
					kept = append(kept, col)
				}
			}
			disputed, err := prot.Table.Project(relation.MustSchema(kept...))
			if err != nil {
				t.Fatal(err)
			}
			for name, k := range map[string]crypt.WatermarkKey{"owner key": key, "wrong key": wrong} {
				if _, err := fw.DisputeContext(context.Background(), disputed, prot.Provenance, k, nil); !errors.Is(err, ErrBadSchema) {
					t.Fatalf("dispute without %s, %s: got %v, want ErrBadSchema", drop, name, err)
				}
			}
		}
	})

	t.Run("bad provenance", func(t *testing.T) {
		fw := testFramework(t)
		prov := Provenance{
			IdentCol:    "ssn",
			Mark:        "0101",
			Duplication: 4,
			Columns:     map[string]ColumnProvenance{"no_such_column": {}},
		}
		if _, err := fw.SpecsFromProvenance(prov); !errors.Is(err, ErrBadProvenance) {
			t.Fatalf("unknown column: got %v, want ErrBadProvenance", err)
		}
		prov.Columns = nil
		prov.Mark = "xyz"
		if _, err := fw.DetectContext(context.Background(), testData(t, 50), prov, key); !errors.Is(err, ErrBadProvenance) {
			t.Fatalf("malformed mark: got %v, want ErrBadProvenance", err)
		}
	})

	t.Run("unsatisfiable", func(t *testing.T) {
		// 3 rows can never satisfy k=10, even fully generalized to the
		// tree roots.
		fw, err := New(trees, Config{K: 10})
		if err != nil {
			t.Fatal(err)
		}
		_, err = fw.ProtectContext(context.Background(), testData(t, 3), key)
		if !errors.Is(err, ErrUnsatisfiable) {
			t.Fatalf("3 rows at k=10: got %v, want ErrUnsatisfiable", err)
		}
		if !errors.Is(err, binning.ErrUnsatisfiable) {
			t.Fatal("core.ErrUnsatisfiable must be the binning sentinel")
		}
	})

	t.Run("key mismatch", func(t *testing.T) {
		fw := testFramework(t)
		prot, err := fw.ProtectContext(context.Background(), testData(t, 500), key)
		if err != nil {
			t.Fatal(err)
		}
		wrong := crypt.NewWatermarkKeyFromSecret("not-the-owner", 25)
		if _, err := fw.DecryptIdentifiers(context.Background(), prot.Table, "", wrong); !errors.Is(err, ErrKeyMismatch) {
			t.Fatalf("wrong key: got %v, want ErrKeyMismatch", err)
		}
		// The right key round-trips the identifying column.
		dec, err := fw.DecryptIdentifiers(context.Background(), prot.Table, "", key)
		if err != nil {
			t.Fatal(err)
		}
		orig := testData(t, 500)
		for i := 0; i < 500; i++ {
			want, _ := orig.Cell(i, "ssn")
			got, _ := dec.Cell(i, "ssn")
			if want != got {
				t.Fatalf("row %d: decrypted %q, want %q", i, got, want)
			}
		}
	})
}

// TestEntryPointsValidateProvenance: detect, dispute and traceback
// check the provenance record they are handed with Provenance.Validate,
// so a record missing a field is ErrBadProvenance at every door rather
// than a failure wherever the field is first used.
func TestEntryPointsValidateProvenance(t *testing.T) {
	fw := testFramework(t)
	key := crypt.NewWatermarkKeyFromSecret("owner", 25)
	tbl := testData(t, 400)
	prot, err := fw.ProtectContext(context.Background(), tbl, key)
	if err != nil {
		t.Fatal(err)
	}
	good := prot.Plan.Provenance
	for name, mutate := range map[string]func(*Provenance){
		"quantum 0":      func(p *Provenance) { p.Quantum = 0 },
		"K 0":            func(p *Provenance) { p.K = 0 },
		"no ident col":   func(p *Provenance) { p.IdentCol = "" },
		"empty mark":     func(p *Provenance) { p.Mark = "" },
		"duplication 0":  func(p *Provenance) { p.Duplication = 0 },
		"no frontiers":   func(p *Provenance) { p.Columns = nil },
		"malformed mark": func(p *Provenance) { p.Mark = "01x1" },
	} {
		bad := good
		mutate(&bad)
		if err := bad.Validate(); !errors.Is(err, ErrBadProvenance) {
			t.Errorf("%s: Validate got %v", name, err)
		}
		if _, err := fw.DetectContext(context.Background(), prot.Table, bad, key); !errors.Is(err, ErrBadProvenance) || errors.Is(err, ErrBadSchema) {
			t.Errorf("%s: Detect got %v, want ErrBadProvenance", name, err)
		}
		if _, err := fw.DisputeContext(context.Background(), prot.Table, bad, key, nil); !errors.Is(err, ErrBadProvenance) {
			t.Errorf("%s: Dispute got %v, want ErrBadProvenance", name, err)
		}
		cands := []Candidate{{ID: "good", Provenance: good, Key: key}, {ID: "bad", Provenance: bad, Key: key}}
		if _, err := fw.TracebackContext(context.Background(), prot.Table, cands); !errors.Is(err, ErrBadProvenance) {
			t.Errorf("%s: Traceback got %v, want ErrBadProvenance", name, err)
		}
	}
	if _, err := fw.DisputeContext(context.Background(), prot.Table, good, key, nil); err != nil {
		t.Fatalf("valid provenance refused: %v", err)
	}
}
