// Package datagen generates the synthetic clinical data set used by the
// experiments. The paper evaluates on a real-world table of about 20,000
// tuples with schema R(ssn, age, zip code, doctor, symptom, prescription);
// that data set is not published, so this package substitutes a
// deterministic, seeded generator: same schema, same size, skewed
// marginals and clinically plausible correlations (age ↔ symptom chapter
// ↔ prescription class), so the binning and watermarking code paths see
// realistic multiplicity histograms over the DHT leaves.
package datagen

import (
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/dht"
	"repro/internal/ontology"
	"repro/internal/relation"
)

// Config controls generation.
type Config struct {
	// Rows is the number of tuples; the paper's data set has ~20,000.
	Rows int
	// Seed drives all randomness; equal seeds give equal tables.
	Seed int64
	// Correlate enables age→symptom and symptom→prescription skew
	// (default true via New; disable for uniform stress tests).
	Correlate bool
	// ZipfS shapes the within-chapter leaf popularity (values near 1.1
	// give a realistic head-heavy distribution). Must be > 1.
	ZipfS float64
}

// Generator produces synthetic clinical tables.
type Generator struct {
	cfg   Config
	trees map[string]*dht.Tree
}

// New returns a generator over the builtin ontologies.
func New(cfg Config) (*Generator, error) {
	if cfg.Rows <= 0 {
		return nil, fmt.Errorf("datagen: Rows must be positive, got %d", cfg.Rows)
	}
	if cfg.ZipfS <= 1 {
		return nil, fmt.Errorf("datagen: ZipfS must exceed 1, got %v", cfg.ZipfS)
	}
	return &Generator{cfg: cfg, trees: ontology.Trees()}, nil
}

// ageBands defines a mixture distribution over ages: pediatric, adult and
// elderly peaks, mimicking hospital admission curves.
// Ages stay below 100 so that high-age DHT nodes are empty rather than
// sparsely populated: a maximal generalization node with a handful of
// tuples would make the data unbinnable at large k (see binning.MonoBin).
var ageBands = []struct {
	lo, hi int
	weight int
}{
	{0, 15, 12},  // pediatric
	{15, 40, 22}, // young adult
	{40, 65, 34}, // middle age
	{65, 90, 28}, // elderly
	{90, 100, 4}, // very old
}

// chapterWeightsByBand skews symptom chapters by age band index
// (0=pediatric .. 4=very old). Chapters are indexed in the order of
// ontology.Symptom's children.
func chapterWeight(band, chapter int) int {
	// base popularity
	base := []int{10, 6, 8, 7, 7, 12, 12, 9, 7, 5, 8, 9}
	w := base[chapter%len(base)]
	switch band {
	case 0: // pediatric: infections, respiratory, injuries up; circulatory down
		switch chapter {
		case 0, 6:
			w *= 3
		case 11:
			w *= 2
		case 5:
			w = 1
		}
	case 3, 4: // elderly: circulatory, neoplasms, musculoskeletal up
		switch chapter {
		case 5:
			w *= 3
		case 1, 10:
			w *= 2
		}
	}
	return w
}

// Generate produces the table. It is deterministic in Config.
func (g *Generator) Generate() (*relation.Table, error) {
	rng := rand.New(rand.NewSource(g.cfg.Seed))
	tbl := relation.NewTable(ontology.Schema())

	symptomTree := g.trees[ontology.ColSymptom]
	prescriptionTree := g.trees[ontology.ColPrescription]
	zipTree := g.trees[ontology.ColZip]
	doctorTree := g.trees[ontology.ColDoctor]

	// Everything that depends only on the trees is resolved before the
	// row loop: each chapter's symptom leaves and each class's drug
	// leaves (indexed by the chapter's or class's position, since node
	// IDs of different trees collide), the class each chapter maps to,
	// and the age strings.
	chapters := symptomTree.Children(symptomTree.Root())
	classes := prescriptionTree.Children(prescriptionTree.Root())
	classByValue := make(map[string]int, len(classes))
	drugLeaves := make([][]dht.NodeID, len(classes))
	for i, c := range classes {
		classByValue[prescriptionTree.Value(c)] = i
		drugLeaves[i] = prescriptionTree.LeavesUnder(c)
	}
	symLeaves := make([][]dht.NodeID, len(chapters))
	chapterClass := make([]int, len(chapters))
	for i, ch := range chapters {
		symLeaves[i] = symptomTree.LeavesUnder(ch)
		chapterClass[i] = -1
		if mapped, ok := ontology.SymptomChapterToPrescriptionClass[symptomTree.Value(ch)]; ok {
			chapterClass[i] = classByValue[mapped]
		}
	}
	ages := make([]string, ageBands[len(ageBands)-1].hi)
	for age := range ages {
		ages[age] = strconv.Itoa(age)
	}
	zipLeaves := zipTree.Leaves()
	doctorLeaves := doctorTree.Leaves()

	zipPick := newZipfPicker(rng, g.cfg.ZipfS, len(zipLeaves))
	doctorPick := newZipfPicker(rng, g.cfg.ZipfS, len(doctorLeaves))
	zipf := zipfIndexer(rng, g.cfg.ZipfS)

	row := make([]string, 6)
	for i := 0; i < g.cfg.Rows; i++ {
		ssn := formatSSN(i, rng)

		band := pickBand(rng)
		age := ageBands[band].lo + rng.Intn(ageBands[band].hi-ageBands[band].lo)

		zip := zipTree.Value(zipLeaves[zipPick()])
		doctor := doctorTree.Value(doctorLeaves[doctorPick()])

		var chIdx int
		if g.cfg.Correlate {
			chIdx = pickWeighted(rng, len(chapters), func(c int) int { return chapterWeight(band, c) })
		} else {
			chIdx = rng.Intn(len(chapters))
		}
		symptom := symptomTree.Value(symLeaves[chIdx][zipf(len(symLeaves[chIdx]))])

		var class int
		if mapped := chapterClass[chIdx]; g.cfg.Correlate && mapped >= 0 && rng.Float64() < 0.7 {
			class = mapped
		} else {
			class = rng.Intn(len(classes))
		}
		prescription := prescriptionTree.Value(drugLeaves[class][zipf(len(drugLeaves[class]))])

		row[0], row[1], row[2], row[3], row[4], row[5] = ssn, ages[age], zip, doctor, symptom, prescription
		if err := tbl.AppendRow(row); err != nil {
			return nil, err
		}
	}
	// The clone drops the value → code maps AppendRow interned through
	// (one entry per distinct SSN, about half the heap at 1M rows); a
	// caller that writes cells rebuilds them on demand.
	return tbl.Clone(), nil
}

// Generate is a convenience wrapper: build a generator with cfg and run it.
func Generate(cfg Config) (*relation.Table, error) {
	g, err := New(cfg)
	if err != nil {
		return nil, err
	}
	return g.Generate()
}

// formatSSN renders a unique, realistic-looking SSN for row i. Uniqueness
// comes from i; the area/group digits are randomized for realism.
func formatSSN(i int, rng *rand.Rand) string {
	return fmt.Sprintf("%03d-%02d-%04d", rng.Intn(899)+1, i/10000+10, i%10000)
}

func pickBand(rng *rand.Rand) int {
	total := 0
	for _, b := range ageBands {
		total += b.weight
	}
	x := rng.Intn(total)
	for i, b := range ageBands {
		if x < b.weight {
			return i
		}
		x -= b.weight
	}
	return len(ageBands) - 1
}

func pickWeighted(rng *rand.Rand, n int, weight func(int) int) int {
	total := 0
	for i := 0; i < n; i++ {
		total += weight(i)
	}
	x := rng.Intn(total)
	for i := 0; i < n; i++ {
		w := weight(i)
		if x < w {
			return i
		}
		x -= w
	}
	return n - 1
}

// newZipfPicker returns a function drawing Zipf-distributed indices in
// [0,n) with a per-picker random permutation, so different attributes get
// different popular leaves.
func newZipfPicker(rng *rand.Rand, s float64, n int) func() int {
	perm := rng.Perm(n)
	z := rand.NewZipf(rng, s, 1, uint64(n-1))
	return func() int { return perm[int(z.Uint64())] }
}

// zipfIndexer returns a function drawing one Zipf-distributed index in
// [0,n). A rand.Zipf holds only constants of (s, n) besides rng, so one
// per n serves every draw, as a fresh one per draw would.
func zipfIndexer(rng *rand.Rand, s float64) func(n int) int {
	byN := make(map[int]*rand.Zipf)
	return func(n int) int {
		if n == 1 {
			return 0
		}
		z := byN[n]
		if z == nil {
			z = rand.NewZipf(rng, s, 1, uint64(n-1))
			byN[n] = z
		}
		return int(z.Uint64())
	}
}
