package atomicfile

import (
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// noTemps fails the test when dir holds a leftover "*.tmp-*" file.
func noTemps(t *testing.T, dir string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if strings.Contains(e.Name(), ".tmp-") {
			t.Fatalf("temp file left behind: %s", e.Name())
		}
	}
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

func modeOf(t *testing.T, path string) os.FileMode {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Mode().Perm()
}

func TestWriteFileReplacesWithExactMode(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "doc.json")
	if err := WriteFile(path, 0o644, Bytes([]byte("one\n"))); err != nil {
		t.Fatal(err)
	}
	if got := readFile(t, path); got != "one\n" {
		t.Fatalf("content = %q", got)
	}
	if m := modeOf(t, path); m != 0o644 {
		t.Fatalf("mode = %v, want 0644", m)
	}
	// A rewrite applies the requested mode, not the old file's.
	if err := WriteFile(path, 0o600, Bytes([]byte("two\n"))); err != nil {
		t.Fatal(err)
	}
	if got, m := readFile(t, path), modeOf(t, path); got != "two\n" || m != 0o600 {
		t.Fatalf("rewrite = %q mode %v, want %q mode 0600", got, m, "two\n")
	}
	noTemps(t, dir)
}

// A producer that fails partway through leaves the previous bytes and
// no temp file, even after writing more than the buffer holds.
func TestWriteFileProducerErrorKeepsTarget(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "plan.json")
	if err := WriteFile(path, 0o600, Bytes([]byte("previous"))); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk full")
	err := WriteFile(path, 0o600, func(w io.Writer) error {
		if _, err := w.Write([]byte(strings.Repeat("x", 64<<10))); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the producer's error", err)
	}
	if got := readFile(t, path); got != "previous" {
		t.Fatalf("target changed to %d bytes", len(got))
	}
	noTemps(t, dir)

	// Same for a target that did not exist: nothing appears.
	fresh := filepath.Join(dir, "fresh.csv")
	if err := WriteFile(fresh, 0o644, func(io.Writer) error { return boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	if _, err := os.Stat(fresh); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("failed write created the target: %v", err)
	}
	noTemps(t, dir)
}

func TestCreateFailsWithoutDirectory(t *testing.T) {
	dir := t.TempDir()
	if _, err := Create(filepath.Join(dir, "missing", "x.csv"), 0o644); err == nil {
		t.Fatal("Create in a missing directory succeeded")
	}
	noTemps(t, dir)
}

func TestAbortAfterPartialWrite(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "copy.csv")
	f, err := Create(path, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte(strings.Repeat("row\n", 5000))); err != nil {
		t.Fatal(err)
	}
	f.Abort()
	f.Abort() // idempotent
	var none *File
	none.Abort() // nil-safe
	if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("aborted write created the target: %v", err)
	}
	noTemps(t, dir)
}

func TestCommitLandsEveryFile(t *testing.T) {
	dir := t.TempDir()
	const n = 5
	files := make([]*File, n)
	for i := range files {
		f, err := Create(filepath.Join(dir, fmt.Sprintf("r%d.csv", i)), 0o644)
		if err != nil {
			t.Fatal(err)
		}
		files[i] = f
	}
	for i, f := range files {
		if _, err := fmt.Fprintf(f, "copy %d\n", i); err != nil {
			t.Fatal(err)
		}
	}
	// Nothing is visible before Commit.
	if _, err := os.Stat(filepath.Join(dir, "r0.csv")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("target visible before Commit: %v", err)
	}
	for _, f := range files {
		if err := f.Commit(); err != nil {
			t.Fatal(err)
		}
		f.Abort() // a no-op after Commit
	}
	for i := range files {
		path := filepath.Join(dir, fmt.Sprintf("r%d.csv", i))
		if got := readFile(t, path); got != fmt.Sprintf("copy %d\n", i) {
			t.Fatalf("%s = %q", path, got)
		}
		if m := modeOf(t, path); m != 0o644 {
			t.Fatalf("%s mode = %v, want 0644", path, m)
		}
	}
	noTemps(t, dir)
}

func TestModeOr(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.csv")
	if m := ModeOr(path, 0o644); m != 0o644 {
		t.Fatalf("missing file: mode = %v, want the default 0644", m)
	}
	if err := os.WriteFile(path, nil, 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.Chmod(path, 0o640); err != nil {
		t.Fatal(err)
	}
	if m := ModeOr(path, 0o644); m != 0o640 {
		t.Fatalf("existing file: mode = %v, want its own 0640", m)
	}
}

func TestReadJSON(t *testing.T) {
	dir := t.TempDir()
	type doc struct {
		Version int `json:"version"`
	}
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o600); err != nil {
			t.Fatal(err)
		}
		return path
	}

	v := doc{Version: 7}
	found, err := ReadJSON(filepath.Join(dir, "absent.json"), &v)
	if found || err != nil || v.Version != 7 {
		t.Fatalf("missing file: found=%v err=%v v=%+v, want not found, nil, untouched", found, err, v)
	}

	found, err = ReadJSON(write("ok.json", `{"version": 1}`+"\n"), &v)
	if !found || err != nil || v.Version != 1 {
		t.Fatalf("good file: found=%v err=%v v=%+v", found, err, v)
	}

	if found, err = ReadJSON(write("unknown.json", `{"version": 1, "surprise": true}`), &v); !found || err == nil ||
		!strings.Contains(err.Error(), "surprise") {
		t.Fatalf("unknown field: found=%v err=%v", found, err)
	}
	for i, body := range []string{`{"version": 1} {"version": 2}`, `{"version": 1}}`, "{\"version\": 1}\n]\n", `{"version": 1} x`} {
		if found, err = ReadJSON(write(fmt.Sprintf("trailing%d.json", i), body), &v); !found || err == nil ||
			!strings.Contains(err.Error(), "trailing data") {
			t.Fatalf("trailing data %q: found=%v err=%v", body, found, err)
		}
	}
	if found, err = ReadJSON(write("bad.json", `not json`), &v); !found || err == nil {
		t.Fatalf("malformed: found=%v err=%v", found, err)
	}
	// A path that exists but cannot be read as a file is an error, not
	// "not found".
	if found, err = ReadJSON(dir, &v); found || err == nil {
		t.Fatalf("directory: found=%v err=%v", found, err)
	}
}
