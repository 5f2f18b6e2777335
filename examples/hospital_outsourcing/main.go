// Hospital outsourcing: the paper's §1 motivating workflow. A hospital
// outsources clinical records to a research institute: the data must stay
// useful for the study (usage metrics bound the information loss), no
// patient may be re-identifiable (k-anonymity), and the hospital must be
// able to prove ownership of leaked copies (watermark). The example also
// shows traceability: authorized re-identification through the encrypted
// identifying column (§4.2.3: "patients may benefit from being traced in
// research such as the assessment of treatment safety").
package main

import (
	"context"
	"fmt"
	"log"
	"maps"
	"os"
	"path/filepath"
	"slices"

	"repro/internal/crypt"
	"repro/internal/infoloss"
	"repro/medshield"
)

func main() {
	ctx := context.Background()
	dir, err := os.MkdirTemp("", "outsourcing")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// ---- Hospital side -------------------------------------------------
	records, err := medshield.GenerateSyntheticData(20000, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hospital: %d clinical records\n", records.NumRows())

	// The research institute studies circulatory disease by age band, so
	// the usage metrics cap how much the age and symptom columns may be
	// generalized; the other columns are less precious.
	metrics := &infoloss.Metrics{
		PerColumn: map[string]float64{
			"age":     0.45, // keep age bands reasonably narrow
			"symptom": 0.98, // symptoms may generalize up to chapters
		},
		Avg: 1,
	}
	fw, err := medshield.New(medshield.BuiltinTrees(), medshield.Config{K: 25, AutoEpsilon: true, Metrics: metrics})
	if err != nil {
		log.Fatal(err)
	}
	key := medshield.NewKey("hospital outsourcing secret", 60)

	protected, err := fw.ProtectContext(ctx, records, key)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hospital: protected at k=%d (ε=%d)\n",
		protected.Provenance.K, protected.Provenance.Epsilon)
	for _, col := range slices.Sorted(maps.Keys(protected.Plan.ColumnLoss)) {
		fmt.Printf("  %-13s info loss %5.1f%%  (bound %.0f%%)\n",
			col, protected.Plan.ColumnLoss[col]*100, metrics.Bound(col)*100)
	}

	// Ship the CSV to the institute; keep the provenance + secret.
	shipped := filepath.Join(dir, "outsourced.csv")
	if err := medshield.SaveCSVFile(shipped, protected.Table); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hospital: shipped %s\n", shipped)

	// ---- Research institute side ---------------------------------------
	study, err := medshield.LoadCSVFile(shipped, medshield.BuiltinSchema())
	if err != nil {
		log.Fatal(err)
	}
	// The institute runs its analysis on the generalized data: e.g.
	// circulatory cases per published age bin.
	// The columnar engine makes this a code-level group-by: the symptom
	// predicate resolves to one dictionary code, and the aggregation
	// walks two integer vectors.
	counts := map[string]int{}
	ageIdx, _ := study.Schema().Index("age")
	symIdx, _ := study.Schema().Index("symptom")
	if circ, ok := study.CodeOf(symIdx, "390-459 Circulatory System"); ok {
		ageCodes, symCodes := study.Codes(ageIdx), study.Codes(symIdx)
		for i, sc := range symCodes {
			if sc == circ {
				counts[study.ValueOf(ageIdx, ageCodes[i])]++
			}
		}
	}
	fmt.Printf("institute: circulatory cases per published age bin (%d bins)\n", len(counts))

	// ---- Traceability (authorized) --------------------------------------
	// A trial finds a drug-safety signal; the hospital (who holds the
	// key) re-identifies one affected record for follow-up care.
	cipher, err := crypt.NewCipher(key.Enc)
	if err != nil {
		log.Fatal(err)
	}
	encSSN, _ := study.Cell(0, "ssn")
	ssn, err := cipher.AppendDecryptString(nil, encSSN)
	if err != nil {
		log.Fatal(err)
	}
	orig, _ := records.Cell(0, "ssn")
	fmt.Printf("hospital: traced record 0 back to patient %s (matches original: %v)\n",
		ssn, string(ssn) == orig)

	// ---- A leak appears ---------------------------------------------------
	// Months later the table shows up on a data broker's site. Detection
	// under the hospital's key proves provenance.
	det, err := fw.DetectContext(ctx, study, protected.Provenance, key)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hospital: leak detection -> match=%v (mark loss %.1f%%)\n",
		det.Match, det.MarkLoss*100)
}
