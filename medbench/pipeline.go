package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"runtime"

	"repro/internal/bitstr"
	"repro/internal/core"
	"repro/internal/crypt"
	"repro/internal/datagen"
	"repro/internal/ontology"
	"repro/internal/relation"
	"repro/internal/watermark"
)

// ioBuf is the buffer size of the benchmark's CSV files.
const ioBuf = 1 << 20

// ownerSecret and ownerEta key every release the benchmark makes.
const (
	ownerSecret = "medbench owner"
	ownerEta    = 75
)

// newFramework is the data owner's pipeline: k=20 with the conservative
// AutoEpsilon, default chunk, one worker per GOMAXPROCS.
func newFramework() (*core.Framework, error) {
	return core.New(ontology.Trees(), core.Config{K: 20, AutoEpsilon: true, Workers: runtime.GOMAXPROCS(0)})
}

// generateTable draws the seeded synthetic clinical table.
func generateTable(rows int, seed int64) (*relation.Table, error) {
	return datagen.Generate(datagen.Config{Rows: rows, Seed: seed, Correlate: true, ZipfS: 1.2})
}

// writeCSVFile writes tbl to path.
func writeCSVFile(path string, tbl *relation.Table) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, ioBuf)
	if err := tbl.WriteCSV(bw); err != nil {
		f.Close()
		return err
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// fileSegments streams a CSV file as segments of the default chunk.
type fileSegments struct {
	*relation.SegmentReader
	f *os.File
}

func openSegments(path string, schema *relation.Schema) (*fileSegments, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	sr, err := relation.NewSegmentReader(bufio.NewReaderSize(f, ioBuf), schema, relation.DefaultChunk)
	if err != nil {
		f.Close()
		return nil, err
	}
	return &fileSegments{SegmentReader: sr, f: f}, nil
}

func (s *fileSegments) Close() error { return s.f.Close() }

// csvSink is a buffered CSV output file.
type csvSink struct {
	*bufio.Writer
	f *os.File
}

func createSink(path string) (*csvSink, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &csvSink{Writer: bufio.NewWriterSize(f, ioBuf), f: f}, nil
}

// Close flushes and closes the file.
func (s *csvSink) Close() error {
	if err := s.Flush(); err != nil {
		s.f.Close()
		return err
	}
	return s.f.Close()
}

// hashFile returns the hex SHA-256 of a file.
func hashFile(path string) (string, error) {
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, bufio.NewReaderSize(f, ioBuf)); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// planJSON serializes a plan the way the CLI and the golden tests do.
func planJSON(p *core.Plan) (string, error) {
	b, err := core.MarshalPlan(p)
	if err != nil {
		return "", err
	}
	return string(b), nil
}

func sha256Hex(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// paramsOf rebuilds the watermark parameters core derives from a
// provenance record and a key.
func paramsOf(prov core.Provenance, key crypt.WatermarkKey, workers int) (watermark.Params, error) {
	mark, err := bitstr.FromString(prov.Mark)
	if err != nil {
		return watermark.Params{}, fmt.Errorf("provenance mark: %w", err)
	}
	return watermark.Params{
		Key:                    key,
		Mark:                   mark,
		Duplication:            prov.Duplication,
		WeightedVoting:         prov.WeightedVoting,
		SaltPositionWithColumn: prov.SaltPositionWithColumn,
		BoundaryPermutation:    prov.BoundaryPermutation,
		Workers:                workers,
	}, nil
}
