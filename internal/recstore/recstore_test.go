package recstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
)

type item struct {
	ID    string `json:"id"`
	Group string `json:"group,omitempty"`
	N     int    `json:"n"`
}

type itemDoc struct {
	Version int    `json:"items_version"`
	Items   []item `json:"items"`
}

// items orders by N, then ID, so the file order differs from key order;
// Check fills an empty Group, as the stores' tenant migration does.
var items = Format[item, itemDoc]{
	Name:    "items",
	Version: 1,
	Key:     func(it item) string { return it.ID },
	Compare: func(a, b item) int {
		if a.N != b.N {
			return a.N - b.N
		}
		return strings.Compare(a.ID, b.ID)
	},
	Check: func(it item) (item, error) {
		if it.ID == "" {
			return it, errors.New("items: empty ID")
		}
		if it.Group == "" {
			it.Group = "none"
		}
		return it, nil
	},
	Wrap:   func(its []item) itemDoc { return itemDoc{Version: 1, Items: its} },
	Unwrap: func(d itemDoc) (int, []item) { return d.Version, d.Items },
}

func openItems(t *testing.T, path string) *Store[item, itemDoc] {
	t.Helper()
	s, err := Open(&items, path)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestRoundTripOrderAndNormalise(t *testing.T) {
	path := filepath.Join(t.TempDir(), "items.json")
	s := openItems(t, path)
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("Open created a file before any mutation")
	}
	for _, it := range []item{{ID: "c", N: 1}, {ID: "a", N: 2}, {ID: "b", N: 1, Group: "g"}} {
		if err := s.Put(it); err != nil {
			t.Fatal(err)
		}
	}
	want := []item{{ID: "b", Group: "g", N: 1}, {ID: "c", Group: "none", N: 1}, {ID: "a", Group: "none", N: 2}}
	if got := s.List(); !reflect.DeepEqual(got, want) {
		t.Fatalf("List = %+v, want %+v", got, want)
	}
	if st, err := os.Stat(path); err != nil || st.Mode().Perm() != 0o600 {
		t.Fatalf("store file mode = %v, %v; want 0600", st.Mode().Perm(), err)
	}
	re := openItems(t, path)
	if got := re.List(); !reflect.DeepEqual(got, want) || re.Len() != 3 || re.Path() != path {
		t.Fatalf("reloaded %+v (len %d, path %q)", got, re.Len(), re.Path())
	}
	seen := 0
	re.Range(func(item) { seen++ })
	if seen != 3 {
		t.Fatalf("Range visited %d records, want 3", seen)
	}
	if err := s.Put(item{N: 9}); err == nil || s.Len() != 3 {
		t.Fatalf("invalid put: err %v, len %d", err, s.Len())
	}
	if had, err := s.Delete("zz"); had || err != nil {
		t.Fatalf("deleting an absent key: %v, %v", had, err)
	}
}

func TestOpenRefusesBadFiles(t *testing.T) {
	dir := t.TempDir()
	for i, c := range []struct{ body, want string }{
		{`{"items_version": 2, "items": []}`, "has format version 2, want 1"},
		{`{"items_version": 1, "items": [], "surprise": 1}`, "unknown field"},
		{`{"items_version": 1, "items": [{"id": "", "n": 1}]}`, "empty ID"},
		{`{"items_version": 1, "items": [{"id": "a", "n": 1}, {"id": "a", "n": 2}]}`, `duplicate record "a"`},
	} {
		path := filepath.Join(dir, fmt.Sprintf("f%d.json", i))
		if err := os.WriteFile(path, []byte(c.body), 0o600); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(&items, path); err == nil || !strings.HasPrefix(err.Error(), "items: ") || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: got %v, want %q", c.body, err, c.want)
		}
	}
}

// TestUpdateIsAtomic: a transaction that fails part-way leaves no write
// behind, even for a key it wrote twice or deleted.
func TestUpdateIsAtomic(t *testing.T) {
	s := New(&items)
	if err := s.Put(item{ID: "a", N: 1}); err != nil {
		t.Fatal(err)
	}
	before := s.List()
	boom := errors.New("boom")
	err := s.Update(func(tx *Tx[item, itemDoc]) error {
		for _, it := range []item{{ID: "a", N: 5}, {ID: "b", N: 2}, {ID: "a", N: 7}} {
			if err := tx.Put(it); err != nil {
				return err
			}
		}
		if got, _ := tx.Get("a"); got.N != 7 {
			t.Errorf("tx.Get sees N=%d, want the transaction's 7", got.N)
		}
		tx.Delete("b")
		tx.Delete("a")
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Update = %v, want the transaction's error", err)
	}
	if got := s.List(); !reflect.DeepEqual(got, before) {
		t.Fatalf("failed transaction left %+v, want %+v", got, before)
	}
}

// TestPersistFailureRestores forces the write to fail after Open by
// moving the store's directory away (root ignores permission bits, so
// chmod would not do). For a put of a new key, a replacing put, a
// delete and a multi-key transaction, the store must still equal the
// file as it stands on disk.
func TestPersistFailureRestores(t *testing.T) {
	root := t.TempDir()
	dir := filepath.Join(root, "live")
	moved := filepath.Join(root, "moved")
	if err := os.Mkdir(dir, 0o700); err != nil {
		t.Fatal(err)
	}
	s := openItems(t, filepath.Join(dir, "items.json"))
	for _, it := range []item{{ID: "a", N: 1}, {ID: "b", N: 2}} {
		if err := s.Put(it); err != nil {
			t.Fatal(err)
		}
	}
	for name, mutate := range map[string]func() error{
		"put new":     func() error { return s.Put(item{ID: "c", N: 3}) },
		"put replace": func() error { return s.Put(item{ID: "a", N: 9}) },
		"delete": func() error {
			had, err := s.Delete("b")
			if had {
				t.Error("failed delete reported the record gone")
			}
			return err
		},
		"multi-key": func() error {
			return s.Update(func(tx *Tx[item, itemDoc]) error {
				tx.Delete("a")
				if err := tx.Put(item{ID: "b", N: 8}); err != nil {
					return err
				}
				return tx.Put(item{ID: "d", N: 4})
			})
		},
	} {
		if err := os.Rename(dir, moved); err != nil {
			t.Fatal(err)
		}
		if err := mutate(); err == nil {
			t.Fatalf("%s: persisted into a missing directory", name)
		}
		onDisk := openItems(t, filepath.Join(moved, "items.json")).List()
		if got := s.List(); !reflect.DeepEqual(got, onDisk) {
			t.Errorf("%s: store holds %+v, disk holds %+v", name, got, onDisk)
		}
		if got, ok := s.Get("a"); !ok || got.N != 1 {
			t.Errorf("%s: Get(a) = %+v, %v", name, got, ok)
		}
		if err := os.Rename(moved, dir); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Put(item{ID: "c", N: 3}); err != nil {
		t.Fatalf("put after the directory came back: %v", err)
	}
}

// TestInMemoryPutAllocatesNothing pins the cost of the job manager's
// state transitions on an in-memory store: no marshal, no sort, no
// allocation once the key exists.
func TestInMemoryPutAllocatesNothing(t *testing.T) {
	s := New(&items)
	it := item{ID: "a", Group: "g", N: 1}
	if err := s.Put(it); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { _ = s.Put(it) }); n != 0 {
		t.Fatalf("in-memory Put allocates %v times", n)
	}
}

func TestConcurrentUse(t *testing.T) {
	s := openItems(t, filepath.Join(t.TempDir(), "items.json"))
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				id := fmt.Sprintf("w%d-%d", w, i)
				if err := s.Put(item{ID: id, N: i}); err != nil {
					t.Error(err)
					return
				}
				s.Get(id)
				s.List()
				s.Range(func(item) {})
				if i%2 == 0 {
					if _, err := s.Delete(id); err != nil {
						t.Error(err)
					}
				}
			}
		}()
	}
	wg.Wait()
	if s.Len() != 40 {
		t.Fatalf("len = %d, want 40", s.Len())
	}
	if re := openItems(t, s.Path()); !reflect.DeepEqual(re.List(), s.List()) {
		t.Fatal("file and memory disagree after concurrent use")
	}
}
