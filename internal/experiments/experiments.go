// Package experiments regenerates every table and figure of the paper's
// evaluation (Section 7), plus the experimentally checkable in-text
// claims. Each runner returns a printable Table whose rows mirror what
// the paper reports; Runners lists them in order, cmd/experiments renders
// them and the root bench_test.go runs each as a testing.B sub-benchmark.
// The README's "Reproducing the paper's figures" section shows how to run
// them.
package experiments

import (
	"context"
	"fmt"
	"io"
	"strings"

	"repro/internal/binning"
	"repro/internal/bitstr"
	"repro/internal/core"
	"repro/internal/crypt"
	"repro/internal/datagen"
	"repro/internal/dht"
	"repro/internal/infoloss"
	"repro/internal/ontology"
	"repro/internal/ownership"
	"repro/internal/relation"
	"repro/internal/watermark"
)

// Runner is one experiment: the name cmd/experiments' -run flag selects
// it by, and the function that computes its table.
type Runner struct {
	Name string
	Run  func(Config) (*Table, error)
}

// Runners lists every experiment in run order: E1..E9 reproduce the
// paper's evaluation (Figures 11-14, the §6 seamlessness lemmas, the §5.2
// generalization attack, the §4.2.1 binning-direction claim); E10..E12
// measure its in-text suggestions (weighted voting, restrained swapping,
// the §1 linking-attack premise).
var Runners = []Runner{
	{"fig11", Figure11},
	{"fig12a", Figure12a},
	{"fig12b", Figure12b},
	{"fig12c", Figure12c},
	{"fig13", Figure13},
	{"fig14", Figure14},
	{"seamless", Seamlessness},
	{"genattack", GeneralizationAttack},
	{"ablation", DownUpAblation},
	{"weighted", WeightedVotingAblation},
	{"swapping", SwappingAblation},
	{"reident", ReIdentification},
}

// Config parameterizes an experiment run. Zero values default to the
// paper's setting: 20,000 tuples, a 20-bit mark.
type Config struct {
	// Rows is the synthetic data set size (paper: ~20,000).
	Rows int
	// Seed drives the synthetic data and the attack randomness.
	Seed int64
	// MarkBits is |wm| (paper: 20).
	MarkBits int
	// Duplication is the mark replication factor l.
	Duplication int
	// Secret derives the watermarking key set.
	Secret string
	// Workers bounds the goroutines used to run independent experiment
	// points (figure-sweep entries, attack-battery cells) concurrently
	// (0 = GOMAXPROCS, 1 = sequential). Results are assembled in point
	// order, so tables are identical for every worker count.
	Workers int
}

// Defaults fills in the paper's parameters.
func (c Config) Defaults() Config {
	if c.Rows == 0 {
		c.Rows = 20000
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.MarkBits == 0 {
		c.MarkBits = 20
	}
	if c.Duplication == 0 {
		c.Duplication = 4
	}
	if c.Secret == "" {
		c.Secret = "experiments-owner-secret"
	}
	return c
}

// Table is a printable experiment result.
type Table struct {
	// ID is the experiment identifier (e.g. "E2 / Figure 12(a)").
	ID string
	// Title describes the experiment.
	Title string
	// Header names the columns.
	Header []string
	// Rows are the data rows, already formatted.
	Rows [][]string
	// Notes carry caveats (e.g. voting-strength differences vs the paper).
	Notes []string
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%s — %s\n", t.ID, t.Title); err != nil {
		return err
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		return strings.Join(parts, "  ")
	}
	if _, err := fmt.Fprintln(w, line(t.Header)); err != nil {
		return err
	}
	total := len(widths) - 1
	for _, wd := range widths {
		total += wd + 1
	}
	if _, err := fmt.Fprintln(w, strings.Repeat("-", total)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

// pct formats a fraction as a percentage with one decimal.
func pct(f float64) string { return fmt.Sprintf("%.1f", f*100) }

// generate builds the synthetic evaluation data set.
func generate(cfg Config) (*relation.Table, error) {
	return datagen.Generate(datagen.Config{
		Rows: cfg.Rows, Seed: cfg.Seed, Correlate: true, ZipfS: 1.2,
	})
}

// FrontierAtDepth returns the valid generalization whose members are the
// nodes at the given depth (or shallower leaves). It is how the
// experiments state usage metrics "directly given as maximal
// generalization nodes" (the paper's §7 simplification).
func FrontierAtDepth(tree *dht.Tree, depth int) (dht.GenSet, error) {
	var members []dht.NodeID
	var walk func(nd dht.NodeID)
	walk = func(nd dht.NodeID) {
		n := tree.Node(nd)
		if n.Depth == depth || n.IsLeaf() {
			members = append(members, nd)
			return
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(tree.Root())
	return dht.NewGenSet(tree, members)
}

// defaultMaxGens states the experiments' usage metrics: regions for zip,
// chapters for symptom, classes for prescription, staff categories for
// doctor, quarter-domain intervals for age.
func defaultMaxGens(trees map[string]*dht.Tree) (map[string]dht.GenSet, error) {
	depths := map[string]int{
		ontology.ColAge:          2,
		ontology.ColZip:          1,
		ontology.ColDoctor:       2,
		ontology.ColSymptom:      1,
		ontology.ColPrescription: 1,
	}
	out := make(map[string]dht.GenSet, len(trees))
	for col, tree := range trees {
		d, ok := depths[col]
		if !ok {
			d = 1
		}
		g, err := FrontierAtDepth(tree, d)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", col, err)
		}
		out[col] = g
	}
	return out, nil
}

// markQuantum is the quantization step of the ownership function F the
// setup's mark derives under.
const markQuantum = 1e6

// wmSetup is the shared fixture of the watermarking experiments: the
// original table, its per-column mono-binned version (quasi columns on
// the setup's frontiers, identifiers in the clear), and the watermark
// column specs. The experiments publish it through release, the
// product's write loop, which encrypts the identifiers and embeds the
// mark.
type wmSetup struct {
	cfg      Config
	original *relation.Table
	binned   *relation.Table
	columns  map[string]watermark.ColumnSpec
	trees    map[string]*dht.Tree
	identCol string
	mark     bitstr.Bits
}

// key derives the experiment key set for a given η.
func (s *wmSetup) key(eta uint64) crypt.WatermarkKey {
	return crypt.NewWatermarkKeyFromSecret(s.cfg.Secret, eta)
}

// newWatermarkSetup generates data, states the usage metrics as maximal
// generalization nodes (§7's simplification), mono-bins every quasi
// column downward at k, and derives the ownership mark — the common
// preparation of the Figure 12/13/14 experiments. The identifiers stay
// in the clear: release encrypts them.
func newWatermarkSetup(cfg Config, k int) (*wmSetup, error) {
	cfg = cfg.Defaults()
	original, err := generate(cfg)
	if err != nil {
		return nil, err
	}
	trees := ontology.Trees()
	maxGens, err := defaultMaxGens(trees)
	if err != nil {
		return nil, err
	}
	identCol := original.Schema().IdentColumns()[0]
	mark, _, err := ownership.OwnerMark(original, identCol, markQuantum, cfg.MarkBits)
	if err != nil {
		return nil, err
	}

	binned := original.Clone()
	columns := make(map[string]watermark.ColumnSpec, len(trees))
	for _, col := range original.Schema().QuasiColumns() {
		ci, _ := binned.Schema().Index(col)
		hist, err := infoloss.LeafHistogramCodes(trees[col], binned.DictValues(ci), binned.Codes(ci))
		if err != nil {
			return nil, err
		}
		ulti, _, err := binning.MonoBinHist(trees[col], maxGens[col], hist, k, false)
		if err != nil {
			return nil, fmt.Errorf("experiments: mono-binning %s at k=%d: %w", col, k, err)
		}
		if _, err := binned.MapColumnCtx(context.Background(), 1, ci, func(dst []byte, v string) ([]byte, error) {
			g, err := ulti.GeneralizeValue(v)
			return append(dst, g...), err
		}, nil); err != nil {
			return nil, err
		}
		columns[col] = watermark.ColumnSpec{Tree: trees[col], MaxGen: maxGens[col], UltiGen: ulti}
	}

	return &wmSetup{
		cfg:      cfg,
		original: original,
		binned:   binned,
		columns:  columns,
		trees:    trees,
		identCol: identCol,
		mark:     mark,
	}, nil
}

// release publishes tbl, whose quasi columns sit on the given frontiers
// and whose identifiers are in the clear, through the product's write
// loop: core.Framework.ApplyContext under a K=1 plan that marks the
// given columns with the setup's mark. A quasi column absent from
// columns is planned with its setup frontier as both its ultimate and
// its maximal nodes, so it carries no bit and publishes unchanged. The
// core encrypts the identifiers under key.Enc; Protected.Provenance is
// the record the mark detects under (markLoss). workers is the core's
// Workers: sweep points that already fan out pass 1.
func (s *wmSetup) release(tbl *relation.Table, columns map[string]watermark.ColumnSpec, key crypt.WatermarkKey, workers int) (*core.Protected, error) {
	plan := &core.Plan{
		Provenance: core.Provenance{
			IdentCol:               s.identCol,
			K:                      1,
			Mark:                   s.mark.String(),
			Quantum:                markQuantum,
			Duplication:            s.cfg.Duplication,
			SaltPositionWithColumn: true,
			Columns:                make(map[string]core.ColumnProvenance, len(s.columns)),
		},
		FormatVersion: core.PlanVersion,
		EffectiveK:    1,
		QuasiCols:     tbl.Schema().QuasiColumns(),
	}
	for col, spec := range s.columns {
		if c, ok := columns[col]; ok {
			spec = c
		} else {
			spec.MaxGen = spec.UltiGen
		}
		plan.Columns[col] = core.ColumnProvenance{Ulti: spec.UltiGen.Values(), Max: spec.MaxGen.Values()}
	}
	fw, err := core.New(s.trees, core.Config{K: 1, Workers: workers})
	if err != nil {
		return nil, err
	}
	return fw.ApplyContext(context.Background(), tbl, plan, key)
}

// zipAtDepth is the fixed-frontier fixture of the zip experiments (E8,
// E10): the binned table with its zip column re-generalized from the
// original to the frontier at the given depth, and that column's spec
// under region usage metrics (depth 1). The other columns keep their
// binned values; release plans them with no bandwidth, so they carry
// no mark.
func (s *wmSetup) zipAtDepth(depth int) (*relation.Table, map[string]watermark.ColumnSpec, error) {
	tree := s.trees[ontology.ColZip]
	ulti, err := FrontierAtDepth(tree, depth)
	if err != nil {
		return nil, nil, err
	}
	maxg, err := FrontierAtDepth(tree, 1)
	if err != nil {
		return nil, nil, err
	}
	base := s.binned.Clone()
	ci, _ := base.Schema().Index(ontology.ColZip)
	for i := 0; i < base.NumRows(); i++ {
		orig, _ := s.original.Cell(i, ontology.ColZip)
		v, err := ulti.GeneralizeValue(orig)
		if err != nil {
			return nil, nil, err
		}
		base.SetCellAt(i, ci, v)
	}
	spec := watermark.ColumnSpec{Tree: tree, MaxGen: maxg, UltiGen: ulti}
	return base, map[string]watermark.ColumnSpec{ontology.ColZip: spec}, nil
}

// frontierValues lists the legal (frontier) values of a column — the
// value pool attackers draw plausible replacements from.
func (s *wmSetup) frontierValues() map[string][]string {
	out := make(map[string][]string, len(s.columns))
	for col, spec := range s.columns {
		out[col] = spec.UltiGen.Values()
	}
	return out
}

// markLoss detects the setup's mark in tbl under s.key(eta) and the
// provenance record a release returned, through the product's read
// loop, core.Framework.DetectContext, and returns its loss. Detection
// runs sequentially: its callers already fan their sweep points out
// over cfg.Workers.
func (s *wmSetup) markLoss(tbl *relation.Table, prov core.Provenance, eta uint64) (float64, error) {
	fw, err := core.New(s.trees, core.Config{K: 1, Workers: 1})
	if err != nil {
		return 0, err
	}
	det, err := fw.DetectContext(context.Background(), tbl, prov, s.key(eta))
	if err != nil {
		return 0, err
	}
	return det.MarkLoss, nil
}
