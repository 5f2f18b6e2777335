// Package atomicfile is the one durability policy for the files a data
// owner keeps: the recipient registry, the job and tenant stores, plans,
// provenance records and protected CSVs. A write goes to a temp file
// ("<base>.tmp-*") in the target's directory with an exact mode, is
// buffered, fsynced and closed, and is renamed over the target only when
// all of that succeeded. A failed producer, a full disk or a crash
// therefore leaves the previous file (or none) at the target, never a
// truncated one, and on any failure the temp file is closed and removed.
//
// ReadJSON is the matching strict load: a missing file is reported as
// not found, and unknown fields and trailing data are rejected, so a
// half-understood document never drives the pipeline.
//
// The parent directory is not fsynced after the rename.
package atomicfile

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// File is a pending atomic write: a buffered temp file that lands at
// its target on Commit and disappears on Abort.
type File struct {
	f    *os.File
	w    *bufio.Writer
	path string
	done bool
}

// Create opens a temp file next to path with exactly mode (the umask
// does not apply). Nothing is visible at path until Commit.
func Create(path string, mode os.FileMode) (*File, error) {
	f, err := os.CreateTemp(filepath.Dir(path), filepath.Base(path)+".tmp-*")
	if err != nil {
		return nil, err
	}
	if err := f.Chmod(mode); err != nil {
		f.Close()
		os.Remove(f.Name())
		return nil, err
	}
	return &File{f: f, w: bufio.NewWriter(f), path: path}, nil
}

// Write buffers p into the temp file.
func (f *File) Write(p []byte) (int, error) { return f.w.Write(p) }

// Commit flushes, fsyncs and closes the temp file and renames it over
// the target. On failure the temp file is removed and the target is
// left as it was.
func (f *File) Commit() error {
	f.done = true
	err := f.w.Flush()
	if err == nil {
		err = f.f.Sync()
	}
	if cerr := f.f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(f.f.Name(), f.path)
	}
	if err != nil {
		os.Remove(f.f.Name())
	}
	return err
}

// Abort closes and removes the temp file, leaving the target as it was.
// It is a no-op on a nil File and after Commit or an earlier Abort, so
// it may be deferred.
func (f *File) Abort() {
	if f == nil || f.done {
		return
	}
	f.done = true
	f.f.Close()
	os.Remove(f.f.Name())
}

// WriteFile atomically replaces path, mode mode, with what write
// produces; an error from write aborts the file.
func WriteFile(path string, mode os.FileMode, write func(io.Writer) error) error {
	f, err := Create(path, mode)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Abort()
		return err
	}
	return f.Commit()
}

// Bytes is the WriteFile producer that writes data.
func Bytes(data []byte) func(io.Writer) error {
	return func(w io.Writer) error {
		_, err := w.Write(data)
		return err
	}
}

// ModeOr returns the permission bits of the file at path, or def when
// it cannot be stat'ed (typically: it does not exist yet). A rewrite
// through Create(path, ModeOr(path, def)) keeps the mode a reader of
// the old file relied on.
func ModeOr(path string, def os.FileMode) os.FileMode {
	if st, err := os.Stat(path); err == nil {
		return st.Mode().Perm()
	}
	return def
}

// ReadJSON strictly decodes the one JSON document in the file at path
// into v: unknown fields and trailing data are errors. A missing file
// reports found == false with a nil error and leaves v untouched.
func ReadJSON(path string, v any) (found bool, err error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return false, nil
	}
	if err != nil {
		return false, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return true, fmt.Errorf("decoding %s: %w", path, err)
	}
	// Token, not More: More reports a stray '}' or ']' as the end of
	// the stream.
	if _, err := dec.Token(); err != io.EOF {
		return true, fmt.Errorf("trailing data after document in %s", path)
	}
	return true, nil
}
