// Command medprotect is the operator tool for the protection framework:
// it generates synthetic clinical data, runs the binning + watermarking
// pipeline, detects marks in suspected copies, simulates the paper's
// attacks, and arbitrates ownership disputes — all over CSV files with
// the builtin schema R(ssn, age, zip_code, doctor, symptom, prescription).
//
// Subcommands:
//
//	medprotect gen      -rows N -seed S -out data.csv
//	medprotect protect  -in data.csv -k K -eta E -secret S -out protected.csv -prov prov.json [-plan plan.json] [-workers W]
//	medprotect plan     -in data.csv -k K -eta E -secret S -plan plan.json [-chunk N] [-workers W]
//	medprotect apply    -in data.csv -plan plan.json -secret S -out protected.csv [-prov prov.json] [-chunk N] [-workers W]
//	medprotect append   -in delta.csv -plan plan.json -secret S -out delta-protected.csv [-base protected.csv] [-chunk N] [-workers W]
//	medprotect detect   -in suspect.csv -prov prov.json -secret S [-chunk N] [-workers W]
//	medprotect attack   -in protected.csv -out attacked.csv -prov prov.json -kind alter|add|delete|rangedelete|generalize -frac F [-col C] [-levels L] -seed S
//	medprotect dispute  -in disputed.csv -prov prov.json -secret S
//	medprotect fingerprint -in data.csv -k K -eta E -secret S -recipients a,b,c -outdir DIR -registry reg.json [-chunk N] [-workers W]
//	medprotect traceback   -in suspect.csv -registry reg.json -secret S [-chunk N] [-workers W]
//	medprotect trees    -dir DIR
//	medprotect job      submit|status|wait|cancel|list -server URL ... (async jobs against medshield-server)
//	medprotect admin    tenant create|list|rotate|delete|disable|enable -store tenants.json ... (provision medshield-server tenants)
//
// protect -plan (or the standalone plan subcommand) writes the
// protection plan: a superset of the provenance record that freezes the
// binning frontiers and watermark parameters. apply executes a saved
// plan on a table (the transform half of protect, no search) and fills
// in its published bin record; append protects a new batch of rows
// under a saved plan and advances the plan's bin record in place, so
// nightly batches chain.
//
// fingerprint protects one source table for several recipients at once
// (one binning search, one marked copy per recipient, each under a
// recipient-salted mark and key derived from the master secret) and
// registers every copy in a recipient registry. traceback runs
// detection for all registered recipients against a leaked table and
// names the best-matching recipient.
//
// plan, apply, append, detect and traceback read their input CSV
// segment-at-a-time, and apply, append and fingerprint write their
// output CSVs the same way, so peak memory is bounded by -chunk rows
// (plan: by the distinct quasi-tuples) rather than the table size;
// fingerprint holds the source table but never a marked copy. Output is
// byte-identical for every -chunk.
package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/atomicfile"
	"repro/internal/attack"
	"repro/internal/core"
	"repro/internal/jsondoc"
	"repro/medshield"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "gen":
		err = cmdGen(os.Args[2:])
	case "protect":
		err = cmdProtect(os.Args[2:])
	case "plan":
		err = cmdPlan(os.Args[2:])
	case "apply":
		err = cmdApply(os.Args[2:])
	case "append":
		err = cmdAppend(os.Args[2:])
	case "detect":
		err = cmdDetect(os.Args[2:])
	case "attack":
		err = cmdAttack(os.Args[2:])
	case "dispute":
		err = cmdDispute(os.Args[2:])
	case "fingerprint":
		err = cmdFingerprint(os.Args[2:])
	case "traceback":
		err = cmdTraceback(os.Args[2:])
	case "trees":
		err = cmdTrees(os.Args[2:])
	case "job":
		err = cmdJob(os.Args[2:])
	case "admin":
		err = cmdAdmin(os.Args[2:])
	case "-h", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "medprotect: unknown subcommand %q\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "medprotect: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: medprotect <gen|protect|plan|apply|append|detect|attack|dispute|fingerprint|traceback|trees|job|admin> [flags]
run "medprotect <subcommand> -h" for flags`)
}

func cmdGen(args []string) error {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	rows := fs.Int("rows", 20000, "number of tuples")
	seed := fs.Int64("seed", 1, "generator seed")
	out := fs.String("out", "data.csv", "output CSV path")
	_ = fs.Parse(args)

	tbl, err := medshield.GenerateSyntheticData(*rows, *seed)
	if err != nil {
		return err
	}
	if err := medshield.SaveCSVFile(*out, tbl); err != nil {
		return err
	}
	fmt.Printf("wrote %d tuples to %s\n", tbl.NumRows(), *out)
	return nil
}

func loadProvenance(path string) (core.Provenance, error) {
	var prov core.Provenance
	data, err := os.ReadFile(path)
	if err != nil {
		return prov, err
	}
	// A plan is a superset of the provenance it extends, so its fields
	// beyond the provenance's are ignored: a plan file stands in for one.
	if err := jsondoc.Decode(bytes.NewReader(data), &prov, false); err != nil {
		return prov, fmt.Errorf("decoding provenance %s: %w: %w", path, err, core.ErrBadProvenance)
	}
	if err := prov.Validate(); err != nil {
		return prov, fmt.Errorf("provenance %s: %w", path, err)
	}
	return prov, nil
}

func cmdProtect(args []string) error {
	fs := flag.NewFlagSet("protect", flag.ExitOnError)
	in := fs.String("in", "data.csv", "input CSV (builtin schema)")
	k := fs.Int("k", 20, "k-anonymity parameter")
	eta := fs.Uint64("eta", 75, "watermark selection parameter η")
	secret := fs.String("secret", "", "owner secret passphrase (required)")
	out := fs.String("out", "protected.csv", "output CSV path")
	provPath := fs.String("prov", "prov.json", "provenance output path")
	planPath := fs.String("plan", "", "also write the effective protection plan here (enables later `medprotect append`)")
	autoEps := fs.Bool("auto-epsilon", true, "apply the §6 conservative ε")
	workers := fs.Int("workers", 0, "worker goroutines for the pipeline (0 = all cores, 1 = sequential)")
	_ = fs.Parse(args)
	if *secret == "" {
		return fmt.Errorf("protect: -secret is required")
	}

	tbl, err := medshield.LoadCSVFile(*in, medshield.BuiltinSchema())
	if err != nil {
		return err
	}
	fw, err := medshield.New(medshield.BuiltinTrees(), medshield.Config{K: *k, AutoEpsilon: *autoEps, Workers: *workers})
	if err != nil {
		return err
	}
	key := medshield.NewKey(*secret, *eta)
	p, err := fw.ProtectContext(context.Background(), tbl, key)
	if err != nil {
		return err
	}
	if err := medshield.SaveCSVFile(*out, p.Table); err != nil {
		return err
	}
	if err := writeProvenance(*provPath, p.Provenance); err != nil {
		return err
	}
	if *planPath != "" {
		if err := writePlan(*planPath, &p.Plan); err != nil {
			return err
		}
	}
	fmt.Printf("protected %d tuples: k=%d (ε=%d), avg info loss %.1f%%, %d tuples marked, %d cells changed\n",
		p.Table.NumRows(), p.Provenance.K, p.Provenance.Epsilon,
		p.Plan.AvgLoss*100, p.Embed.TuplesSelected, p.Embed.CellsChanged)
	fmt.Printf("table -> %s, provenance -> %s (keep the secret and this file)\n", *out, *provPath)
	if *planPath != "" {
		fmt.Printf("plan -> %s (protect future batches with `medprotect append`)\n", *planPath)
	}
	return nil
}

// writePlan and writeProvenance replace an owner document atomically,
// so an interrupted rewrite of a plan in place (apply, append) leaves
// the previous plan and its bin record intact. A new file is 0600, an
// existing one keeps its mode.
func writePlan(path string, plan *medshield.Plan) error {
	data, err := medshield.MarshalPlan(plan)
	if err != nil {
		return err
	}
	return atomicfile.WriteFile(path, atomicfile.ModeOr(path, 0o600), atomicfile.Bytes(data))
}

func writeProvenance(path string, prov medshield.Provenance) error {
	data, err := json.MarshalIndent(prov, "", "  ")
	if err != nil {
		return err
	}
	return atomicfile.WriteFile(path, atomicfile.ModeOr(path, 0o600), atomicfile.Bytes(data))
}

func loadPlan(path string) (*medshield.Plan, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	plan, err := medshield.ParsePlan(data)
	if err != nil {
		return nil, fmt.Errorf("decoding plan %s: %w", path, err)
	}
	return plan, nil
}

func cmdPlan(args []string) error {
	fs := flag.NewFlagSet("plan", flag.ExitOnError)
	in := fs.String("in", "data.csv", "input CSV (builtin schema)")
	k := fs.Int("k", 20, "k-anonymity parameter")
	eta := fs.Uint64("eta", 75, "watermark selection parameter η")
	secret := fs.String("secret", "", "owner secret passphrase (required)")
	planPath := fs.String("plan", "plan.json", "plan output path")
	autoEps := fs.Bool("auto-epsilon", true, "apply the §6 conservative ε")
	chunk := fs.Int("chunk", 0, "rows per segment (0 = default)")
	workers := fs.Int("workers", 0, "worker goroutines for the search (0 = all cores, 1 = sequential)")
	_ = fs.Parse(args)
	if *secret == "" {
		return fmt.Errorf("plan: -secret is required")
	}

	fw, err := medshield.New(medshield.BuiltinTrees(),
		medshield.Config{K: *k, AutoEpsilon: *autoEps, Workers: *workers, Chunk: *chunk})
	if err != nil {
		return err
	}
	var ps *medshield.PlannedStream
	if err := withSegments(*in, fw.Config().Chunk, func(sr *medshield.SegmentReader) (err error) {
		ps, err = fw.PlanStream(context.Background(), sr, medshield.NewKey(*secret, *eta))
		return err
	}); err != nil {
		return err
	}
	plan := ps.Plan
	if err := writePlan(*planPath, plan); err != nil {
		return err
	}
	fmt.Printf("planned %d tuples: k=%d (ε=%d, effective k=%d), avg info loss %.1f%%\n",
		ps.Rows, plan.K, plan.Epsilon, plan.EffectiveK, plan.AvgLoss*100)
	fmt.Printf("plan -> %s (search only — run protect to publish, which fills the bin record appends need)\n", *planPath)
	return nil
}

// writeCSV is SaveCSVFile for a streamed producer: write's CSV lands
// at path atomically, keeping an existing destination's mode (else
// 0644).
func writeCSV(path string, write func(w io.Writer) error) error {
	return atomicfile.WriteFile(path, atomicfile.ModeOr(path, 0o644), write)
}

// withSegments runs fn over the CSV file at path as a segment source of
// the builtin schema, chunk rows per segment.
func withSegments(path string, chunk int, fn func(*medshield.SegmentReader) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sr, err := medshield.NewSegmentReader(f, medshield.BuiltinSchema(), chunk)
	if err != nil {
		return err
	}
	return fn(sr)
}

// countCSVRows counts the data records of a CSV file (header excluded)
// without materializing the table — append's base/plan consistency
// guard.
func countCSVRows(path string) (int, error) {
	rows := 0
	err := withSegments(path, 0, func(sr *medshield.SegmentReader) error {
		for {
			if _, err := sr.Next(); err == io.EOF {
				rows = sr.Rows()
				return nil
			} else if err != nil {
				return err
			}
		}
	})
	if err != nil {
		return 0, fmt.Errorf("counting rows of %s: %w", path, err)
	}
	return rows, nil
}

// appendCSVBody appends the data records of src (its header skipped) to
// dst in place — append's bounded-memory base extension.
func appendCSVBody(dst, src string) (err error) {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	br := bufio.NewReader(in)
	// The builtin schema's column names contain no quotes or newlines, so
	// the header is exactly the first line.
	if _, err := br.ReadString('\n'); err != nil {
		return fmt.Errorf("skipping header of %s: %w", src, err)
	}
	out, err := os.OpenFile(dst, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := out.Close(); err == nil {
			err = cerr
		}
	}()
	if _, err = io.Copy(out, br); err != nil {
		return err
	}
	return out.Sync()
}

// cmdApply executes a saved plan on a table: the transform half of
// protect (suppression replay, generalization, watermarking) with no
// binning search, filling the plan's published bin record in place.
func cmdApply(args []string) error {
	fs := flag.NewFlagSet("apply", flag.ExitOnError)
	in := fs.String("in", "data.csv", "input CSV (builtin schema)")
	planPath := fs.String("plan", "plan.json", "saved plan path (from plan or protect -plan; bin record filled in place)")
	secret := fs.String("secret", "", "owner secret passphrase (required)")
	eta := fs.Uint64("eta", 75, "η used at planning time")
	out := fs.String("out", "protected.csv", "protected CSV path")
	provPath := fs.String("prov", "", "optional provenance output path (subset of the plan)")
	chunk := fs.Int("chunk", 0, "rows per segment (0 = default)")
	workers := fs.Int("workers", 0, "worker goroutines for the transform (0 = all cores, 1 = sequential)")
	_ = fs.Parse(args)
	if *secret == "" {
		return fmt.Errorf("apply: -secret is required")
	}

	plan, err := loadPlan(*planPath)
	if err != nil {
		return err
	}
	fw, err := medshield.New(medshield.BuiltinTrees(),
		medshield.Config{K: plan.K, Workers: *workers, Chunk: *chunk})
	if err != nil {
		return err
	}
	key := medshield.NewKey(*secret, *eta)

	var res *medshield.Streamed
	if err := withSegments(*in, fw.Config().Chunk, func(sr *medshield.SegmentReader) error {
		return writeCSV(*out, func(w io.Writer) (err error) {
			res, err = fw.ApplyStream(context.Background(), sr, plan, key, w)
			return err
		})
	}); err != nil {
		return err
	}
	if err := writePlan(*planPath, &res.Plan); err != nil {
		return err
	}
	if *provPath != "" {
		if err := writeProvenance(*provPath, res.Plan.Provenance); err != nil {
			return err
		}
	}
	fmt.Printf("applied the plan to %d tuples: k=%d (effective k=%d), %d marked, %d cells changed\n",
		res.Rows, res.Plan.K, res.Plan.EffectiveK, res.Embed.TuplesSelected, res.Embed.CellsChanged)
	fmt.Printf("table -> %s, plan's bin record filled in %s (appends can chain now)\n", *out, *planPath)
	if *provPath != "" {
		fmt.Printf("provenance -> %s\n", *provPath)
	}
	return nil
}

func cmdAppend(args []string) error {
	fs := flag.NewFlagSet("append", flag.ExitOnError)
	in := fs.String("in", "delta.csv", "delta CSV (new clear-text rows, builtin schema)")
	planPath := fs.String("plan", "plan.json", "saved plan path (from protect -plan; advanced in place)")
	secret := fs.String("secret", "", "owner secret passphrase (required)")
	eta := fs.Uint64("eta", 75, "η used at protection time")
	out := fs.String("out", "delta-protected.csv", "protected delta CSV path")
	base := fs.String("base", "", "optional published CSV to append the protected delta to, in place")
	chunk := fs.Int("chunk", 0, "rows per segment (0 = default)")
	workers := fs.Int("workers", 0, "worker goroutines for the transform (0 = all cores, 1 = sequential)")
	_ = fs.Parse(args)
	if *secret == "" {
		return fmt.Errorf("append: -secret is required")
	}

	plan, err := loadPlan(*planPath)
	if err != nil {
		return err
	}
	// Check the published table before touching anything: the plan
	// records how many rows are published, so a base that disagrees
	// means an earlier append half-finished (or the wrong file was
	// named). Refusing here keeps a retry from appending the same batch
	// twice.
	if *base != "" {
		rows, err := countCSVRows(*base)
		if err != nil {
			return err
		}
		if rows != plan.Rows {
			return fmt.Errorf(
				"append: %s holds %d rows but %s records %d published rows; base and plan are out of sync (a previous append may have partially failed) — reconcile them before appending",
				*base, rows, *planPath, plan.Rows)
		}
	}
	fw, err := medshield.New(medshield.BuiltinTrees(),
		medshield.Config{K: plan.K, Workers: *workers, Chunk: *chunk})
	if err != nil {
		return err
	}
	var res *medshield.Streamed
	if err := withSegments(*in, fw.Config().Chunk, func(sr *medshield.SegmentReader) error {
		return writeCSV(*out, func(w io.Writer) (err error) {
			res, err = fw.AppendStream(context.Background(), sr, plan, medshield.NewKey(*secret, *eta), w)
			return err
		})
	}); err != nil {
		return err
	}
	// Write order bounds the damage of a mid-sequence failure: the
	// standalone delta first (always recoverable), then the advanced
	// plan, then the base extension — and the row-count guard above
	// catches any half-state on the next run.
	if err := writePlan(*planPath, &res.Plan); err != nil {
		return err
	}
	if *base != "" {
		if err := appendCSVBody(*base, *out); err != nil {
			return fmt.Errorf(
				"append: plan %s is already advanced but extending %s failed: %w — reconcile by appending the rows of %s to it",
				*planPath, *base, err, *out)
		}
	}
	fmt.Printf("appended %d tuples under the plan: %d marked, %d cells changed, %d new bin(s), %d suppressed\n",
		res.Rows, res.Embed.TuplesSelected, res.Embed.CellsChanged, res.NewBins, res.Suppressed)
	fmt.Printf("delta -> %s, plan advanced in %s (union now %d tuples)\n", *out, *planPath, res.Plan.Rows)
	if *base != "" {
		fmt.Printf("published table %s extended in place\n", *base)
	}
	return nil
}

func cmdDetect(args []string) error {
	fs := flag.NewFlagSet("detect", flag.ExitOnError)
	in := fs.String("in", "suspect.csv", "suspected CSV copy")
	provPath := fs.String("prov", "prov.json", "provenance path")
	secret := fs.String("secret", "", "owner secret passphrase (required)")
	eta := fs.Uint64("eta", 75, "η used at protection time")
	chunk := fs.Int("chunk", 0, "rows per segment (0 = default)")
	workers := fs.Int("workers", 0, "worker goroutines for detection (0 = all cores, 1 = sequential)")
	_ = fs.Parse(args)
	if *secret == "" {
		return fmt.Errorf("detect: -secret is required")
	}

	prov, err := loadProvenance(*provPath)
	if err != nil {
		return err
	}
	fw, err := medshield.New(medshield.BuiltinTrees(), medshield.Config{K: prov.K, Workers: *workers, Chunk: *chunk})
	if err != nil {
		return err
	}
	var ds *medshield.DetectStreamed
	if err := withSegments(*in, fw.Config().Chunk, func(sr *medshield.SegmentReader) (err error) {
		ds, err = fw.DetectStream(context.Background(), sr, prov, medshield.NewKey(*secret, *eta))
		return err
	}); err != nil {
		return err
	}
	det := ds.Detection
	fmt.Printf("mark: %s\n", det.Result.Mark.String())
	fmt.Printf("loss: %.1f%% over %d votes\n", det.MarkLoss*100, det.Result.Stats.VotesCast)
	if det.Match {
		fmt.Println("verdict: MATCH — this table carries the owner's mark")
	} else {
		fmt.Println("verdict: NO MATCH")
	}
	return nil
}

func cmdAttack(args []string) error {
	fs := flag.NewFlagSet("attack", flag.ExitOnError)
	in := fs.String("in", "protected.csv", "input CSV")
	out := fs.String("out", "attacked.csv", "output CSV")
	provPath := fs.String("prov", "prov.json", "provenance path (for value pools and frontiers)")
	kind := fs.String("kind", "alter", "alter|add|delete|rangedelete|generalize")
	frac := fs.Float64("frac", 0.3, "attack strength (fraction of tuples)")
	col := fs.String("col", "", "column for -kind generalize (default: all quasi columns)")
	levels := fs.Int("levels", 1, "levels for -kind generalize")
	seed := fs.Int64("seed", 1, "attack randomness seed")
	_ = fs.Parse(args)

	tbl, err := medshield.LoadCSVFile(*in, medshield.BuiltinSchema())
	if err != nil {
		return err
	}
	prov, err := loadProvenance(*provPath)
	if err != nil {
		return err
	}
	fw, err := medshield.New(medshield.BuiltinTrees(), medshield.Config{K: max(prov.K, 1)})
	if err != nil {
		return err
	}
	specs, err := fw.SpecsFromProvenance(prov)
	if err != nil {
		return err
	}
	pools := make(map[string][]string, len(specs))
	for c, s := range specs {
		pools[c] = s.UltiGen.Values()
	}
	rng := rand.New(rand.NewSource(*seed))

	var n int
	switch *kind {
	case "alter":
		n, err = attack.AlterSubset(tbl, pools, *frac, rng)
	case "add":
		gen := attack.BogusRowGenerator(tbl.Schema(), prov.IdentCol, "bogus", pools, rng)
		n, err = attack.AddSubset(tbl, *frac, gen)
	case "delete":
		n, err = attack.DeleteRandom(tbl, *frac, rng)
	case "rangedelete":
		n, err = attack.DeleteRanges(tbl, prov.IdentCol, *frac, 8, rng)
	case "generalize":
		cols := tbl.Schema().QuasiColumns()
		if *col != "" {
			cols = []string{*col}
		}
		for _, c := range cols {
			spec, ok := specs[c]
			if !ok {
				return fmt.Errorf("attack: no frontier for column %s in provenance", c)
			}
			m, gerr := attack.Generalize(tbl, c, spec.Tree, spec.MaxGen, *levels)
			if gerr != nil {
				return gerr
			}
			n += m
		}
	default:
		return fmt.Errorf("attack: unknown kind %q", *kind)
	}
	if err != nil {
		return err
	}
	if err := medshield.SaveCSVFile(*out, tbl); err != nil {
		return err
	}
	fmt.Printf("%s attack touched %d tuples/cells; %d rows -> %s\n", *kind, n, tbl.NumRows(), *out)
	return nil
}

func cmdDispute(args []string) error {
	fs := flag.NewFlagSet("dispute", flag.ExitOnError)
	in := fs.String("in", "disputed.csv", "disputed CSV")
	provPath := fs.String("prov", "prov.json", "owner provenance path")
	secret := fs.String("secret", "", "owner secret passphrase (required)")
	eta := fs.Uint64("eta", 75, "η used at protection time")
	workers := fs.Int("workers", 0, "worker goroutines for detection (0 = all cores, 1 = sequential)")
	_ = fs.Parse(args)
	if *secret == "" {
		return fmt.Errorf("dispute: -secret is required")
	}

	tbl, err := medshield.LoadCSVFile(*in, medshield.BuiltinSchema())
	if err != nil {
		return err
	}
	prov, err := loadProvenance(*provPath)
	if err != nil {
		return err
	}
	fw, err := medshield.New(medshield.BuiltinTrees(), medshield.Config{K: max(prov.K, 1), Workers: *workers})
	if err != nil {
		return err
	}
	verdicts, err := fw.DisputeContext(context.Background(), tbl, prov, medshield.NewKey(*secret, *eta), nil)
	if err != nil {
		return err
	}
	for _, v := range verdicts {
		status := "REJECTED"
		if v.Valid {
			status = "UPHELD"
		}
		fmt.Printf("claim %q: %s (decrypt=%v statistic=%v committed=%v detected=%v loss=%.1f%%)\n",
			v.Claimant, status, v.DecryptOK, v.StatisticOK, v.MarkDerived, v.MarkDetected, v.MarkLoss*100)
		if !v.Valid {
			fmt.Printf("  reason: %s\n", v.Reason)
		}
	}
	return nil
}

func cmdFingerprint(args []string) error {
	fs := flag.NewFlagSet("fingerprint", flag.ExitOnError)
	in := fs.String("in", "data.csv", "input CSV (builtin schema)")
	k := fs.Int("k", 20, "k-anonymity parameter")
	eta := fs.Uint64("eta", 75, "watermark selection parameter η")
	secret := fs.String("secret", "", "owner master secret passphrase (required)")
	recipients := fs.String("recipients", "", "comma-separated recipient IDs (required)")
	outdir := fs.String("outdir", "fingerprinted", "output directory for per-recipient CSVs")
	regPath := fs.String("registry", "recipients.json", "recipient registry path (records appended)")
	autoEps := fs.Bool("auto-epsilon", true, "apply the §6 conservative ε")
	chunk := fs.Int("chunk", 0, "rows per segment (0 = default)")
	workers := fs.Int("workers", 0, "worker goroutines for the pipeline (0 = all cores, 1 = sequential)")
	_ = fs.Parse(args)
	if *secret == "" {
		return fmt.Errorf("fingerprint: -secret is required")
	}
	ids := splitIDs(*recipients)
	if len(ids) == 0 {
		return fmt.Errorf("fingerprint: -recipients is required (comma-separated IDs)")
	}

	tbl, err := medshield.LoadCSVFile(*in, medshield.BuiltinSchema())
	if err != nil {
		return err
	}
	fw, err := medshield.New(medshield.BuiltinTrees(),
		medshield.Config{K: *k, AutoEpsilon: *autoEps, Workers: *workers, Chunk: *chunk})
	if err != nil {
		return err
	}
	recs := make([]medshield.Recipient, len(ids))
	for i, id := range ids {
		recs[i] = medshield.Recipient{ID: id, Key: medshield.RecipientKey(*secret, id, *eta)}
	}
	return fingerprintFiles(fw, tbl, recs, *outdir, *regPath)
}

// fingerprintFiles writes every recipient's copy of tbl to outdir and
// registers the batch. One shared plan and transform fan out to N CSV
// writers segment-at-a-time (FingerprintStream), so no marked copy ever
// materializes. Every copy lands atomically (mode 0644), and the batch
// registers atomically only after all copies landed: a mid-run failure
// must not leave some recipients durably registered for copies that
// were never released.
func fingerprintFiles(fw *medshield.Framework, tbl *medshield.Table, recs []medshield.Recipient, outdir, regPath string) error {
	reg, err := medshield.OpenRegistry(regPath)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(outdir, 0o755); err != nil {
		return err
	}
	paths := make([]string, len(recs))
	files := make([]*atomicfile.File, len(recs))
	outs := make([]io.Writer, len(recs))
	// Discard the copies that did not land; committed copies stay
	// (recoverable, and never registered).
	defer func() {
		for _, f := range files {
			f.Abort()
		}
	}()
	for i, rec := range recs {
		paths[i] = filepath.Join(outdir, rec.ID+".csv")
		if files[i], err = atomicfile.Create(paths[i], 0o644); err != nil {
			return err
		}
		outs[i] = files[i]
	}
	results, err := fw.FingerprintStream(context.Background(), tbl, recs, outs)
	if err != nil {
		return err
	}
	records := make([]medshield.RecipientRecord, len(results))
	for i, res := range results {
		if err := files[i].Commit(); err != nil {
			return err
		}
		records[i] = medshield.RecipientRecordOf(res.RecipientID, recs[i].Key, res.Protected.Plan)
		records[i].CreatedAt = time.Now().UTC().Format(time.RFC3339)
		fmt.Printf("recipient %s: %d tuples marked, %d cells changed -> %s (key fp %s)\n",
			res.RecipientID, res.Protected.Embed.TuplesSelected, res.Protected.Embed.CellsChanged,
			paths[i], res.KeyFingerprint)
	}
	if err := reg.PutAll(records); err != nil {
		return err
	}
	first := results[0].Protected
	fmt.Printf("fingerprinted %d tuples for %d recipients: k=%d (ε=%d), one binning search + one shared transform, avg info loss %.1f%%\n",
		tbl.NumRows(), len(results), first.Plan.Provenance.K, first.Plan.Provenance.Epsilon, first.Plan.AvgLoss*100)
	fmt.Printf("registry -> %s (keep it with the master secret; traceback needs both)\n", regPath)
	return nil
}

func splitIDs(s string) []string {
	var out []string
	for _, part := range strings.Split(s, ",") {
		if id := strings.TrimSpace(part); id != "" {
			out = append(out, id)
		}
	}
	return out
}

func cmdTraceback(args []string) error {
	fs := flag.NewFlagSet("traceback", flag.ExitOnError)
	in := fs.String("in", "suspect.csv", "suspected leaked CSV copy")
	regPath := fs.String("registry", "recipients.json", "recipient registry path")
	secret := fs.String("secret", "", "owner master secret passphrase (required)")
	chunk := fs.Int("chunk", 0, "rows per segment (0 = default)")
	workers := fs.Int("workers", 0, "worker goroutines for detection (0 = all cores, 1 = sequential)")
	_ = fs.Parse(args)
	if *secret == "" {
		return fmt.Errorf("traceback: -secret is required")
	}

	reg, err := medshield.OpenRegistry(*regPath)
	if err != nil {
		return err
	}
	records := reg.List()
	if len(records) == 0 {
		return fmt.Errorf("traceback: registry %s holds no recipients; run `medprotect fingerprint` first", *regPath)
	}
	cands, skipped, err := medshield.TracebackCandidates(records, *secret)
	if err != nil {
		return err
	}
	for _, id := range skipped {
		fmt.Fprintf(os.Stderr, "warning: skipping recipient %q — the secret does not match its registered key (foreign or stale record)\n", id)
	}
	fw, err := medshield.New(medshield.BuiltinTrees(), medshield.Config{K: max(records[0].Plan.K, 1), Workers: *workers, Chunk: *chunk})
	if err != nil {
		return err
	}
	var ts *medshield.TracebackStreamed
	if err := withSegments(*in, fw.Config().Chunk, func(sr *medshield.SegmentReader) (err error) {
		ts, err = fw.TracebackStream(context.Background(), sr, cands)
		return err
	}); err != nil {
		return err
	}
	tb := ts.Traceback
	fmt.Printf("traceback over %d rows against %d registered recipients:\n", ts.Rows, len(cands))
	for rank, v := range tb.Verdicts {
		status := " "
		if v.Match {
			status = "*"
		}
		fmt.Printf("%s %2d. %-24s match %5.1f%% (loss %5.1f%%, confidence %.2f, %d votes)\n",
			status, rank+1, v.RecipientID, v.MatchRatio*100, v.MarkLoss*100, v.Confidence, v.VotesCast)
	}
	if tb.Culprit != "" {
		fmt.Printf("verdict: the leaked copy carries the mark of %q\n", tb.Culprit)
	} else {
		fmt.Println("verdict: no registered recipient's mark is present")
	}
	return nil
}

func cmdTrees(args []string) error {
	fs := flag.NewFlagSet("trees", flag.ExitOnError)
	dir := fs.String("dir", "trees", "output directory for tree JSON files")
	_ = fs.Parse(args)

	if err := os.MkdirAll(*dir, 0o755); err != nil {
		return err
	}
	for col, tree := range medshield.BuiltinTrees() {
		data, err := json.MarshalIndent(tree.Doc(), "", "  ")
		if err != nil {
			return err
		}
		path := filepath.Join(*dir, col+".json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			return err
		}
		fmt.Printf("%s: %d nodes, %d leaves -> %s\n", col, tree.Size(), tree.NumLeaves(), path)
	}
	return nil
}
