// Leak traceback: the paper's motivating outsourcing scenario taken to
// its operational endgame, at operational scale. A data owner releases
// one million-row clinical table to three hospitals — each copy binned
// identically but watermarked with a recipient-salted mark
// F(v, hospital) under a recipient-specific key — and registers every
// copy in a recipient registry. The release runs through
// FingerprintStream: one binning search and ONE shared transform feed
// three embed-only passes that write each hospital's CSV
// segment-at-a-time, so the owner never holds the copies in memory.
// Months later a copy surfaces on the open web, attacked on the way
// out. Traceback streams the leaked file back through TracebackStream —
// the suspect is read segment-at-a-time, memory bounded by the chunk
// size rather than the leak — running detection for every registered
// recipient with shared suspect-side work (verdict tables, one
// selection scan for all recipient keys), and ranks the recipients by
// how much of their mark survives: the culprit's mark reads back nearly
// intact, everyone else's is statistical noise.
//
//	go run ./examples/leak_traceback            # the full 1M-row story
//	go run ./examples/leak_traceback -rows 20000  # a quick run
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"math/rand"
	"os"
	"path/filepath"

	"repro/internal/attack"
	"repro/medshield"
)

func main() {
	rows := flag.Int("rows", 1_000_000, "rows in the released table")
	chunk := flag.Int("chunk", medshield.DefaultChunk, "streaming segment size in rows")
	flag.Parse()

	const masterSecret = "regional health authority master secret"
	const eta = 30

	dir, err := os.MkdirTemp("", "leak-traceback-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// ---- Release day: fingerprint one export for three hospitals ------
	table, err := medshield.GenerateSyntheticData(*rows, 23)
	if err != nil {
		log.Fatal(err)
	}
	fw, err := medshield.New(medshield.BuiltinTrees(), medshield.Config{K: 20, AutoEpsilon: true, Chunk: *chunk})
	if err != nil {
		log.Fatal(err)
	}
	hospitals := []string{"st-jude", "mercy-general", "lakeside"}
	recipients := make([]medshield.Recipient, len(hospitals))
	files := make([]*os.File, len(hospitals))
	outs := make([]io.Writer, len(hospitals))
	for i, h := range hospitals {
		recipients[i] = medshield.Recipient{ID: h, Key: medshield.RecipientKey(masterSecret, h, eta)}
		f, err := os.Create(filepath.Join(dir, h+".csv"))
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		files[i] = f
		outs[i] = f
	}

	// One binning search, one shared transform, three embed-only passes:
	// each hospital's copy streams to its file segment-at-a-time and is
	// never materialized on the owner's side.
	results, err := fw.FingerprintStream(context.Background(), table, recipients, outs)
	if err != nil {
		log.Fatal(err)
	}
	registry := medshield.NewRegistry() // or OpenRegistry("recipients.json")
	for i, res := range results {
		rec := medshield.RecipientRecordOf(res.RecipientID, recipients[i].Key, res.Protected.Plan)
		if err := registry.Put(rec); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("released to %-14s %d rows in %d segments, %d marked cells, key fp %s\n",
			res.RecipientID+":", res.Protected.Rows, res.Protected.Segments,
			res.Protected.Embed.CellsChanged, res.KeyFingerprint)
	}

	// ---- Months later: a copy leaks, attacked on the way out ----------
	// mercy-general's copy surfaces with 30% of its tuples altered and a
	// tenth deleted — the §7.2 attack mix. The attacker holds the copy;
	// the owner never will again.
	leak, err := medshield.LoadCSVFile(files[1].Name(), medshield.BuiltinSchema())
	if err != nil {
		log.Fatal(err)
	}
	specs, err := fw.SpecsFromProvenance(results[1].Protected.Provenance)
	if err != nil {
		log.Fatal(err)
	}
	pools := map[string][]string{}
	for col, spec := range specs {
		pools[col] = spec.UltiGen.Values()
	}
	rng := rand.New(rand.NewSource(99))
	if _, err := attack.AlterSubset(leak, pools, 0.3, rng); err != nil {
		log.Fatal(err)
	}
	if _, err := attack.DeleteRandom(leak, 0.1, rng); err != nil {
		log.Fatal(err)
	}
	leakPath := filepath.Join(dir, "leaked.csv")
	lf, err := os.Create(leakPath)
	if err != nil {
		log.Fatal(err)
	}
	if err := leak.WriteCSV(lf); err != nil {
		log.Fatal(err)
	}
	if err := lf.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\na leaked copy surfaces: %d rows, provenance unknown\n", leak.NumRows())

	// ---- Traceback: whose copy is it? ---------------------------------
	// The owner streams the leaked file — segment-at-a-time, memory
	// bounded by the chunk size, verdicts bit-identical to the in-memory
	// Traceback.
	candidates, skipped, err := medshield.TracebackCandidates(registry.List(), masterSecret)
	if err != nil {
		log.Fatal(err)
	}
	if len(skipped) > 0 {
		log.Fatalf("unexpected unverifiable records: %v", skipped)
	}
	suspect, err := os.Open(leakPath)
	if err != nil {
		log.Fatal(err)
	}
	defer suspect.Close()
	sr, err := medshield.NewSegmentReader(suspect, medshield.BuiltinSchema(), *chunk)
	if err != nil {
		log.Fatal(err)
	}
	tb, err := fw.TracebackStream(context.Background(), sr, candidates)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ntraceback ranking (streamed %d rows in %d segments):\n", tb.Rows, tb.Segments)
	for rank, v := range tb.Verdicts {
		marker := " "
		if v.Match {
			marker = "*"
		}
		fmt.Printf("%s %d. %-14s mark match %5.1f%% (confidence %.2f)\n",
			marker, rank+1, v.RecipientID, v.MatchRatio*100, v.Confidence)
	}
	if tb.Culprit == "" {
		log.Fatal("traceback failed to name a culprit")
	}
	fmt.Printf("\nverdict: the leak is %s's copy\n", tb.Culprit)
	if tb.Culprit != "mercy-general" {
		log.Fatalf("expected mercy-general, got %s", tb.Culprit)
	}
}
