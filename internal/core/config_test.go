package core

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"strings"
	"testing"

	"repro/internal/binning"
	"repro/internal/crypt"
	"repro/internal/infoloss"
	"repro/internal/ontology"
)

// TestNewRefusesOutOfRangeConfig: every value the pipeline would later
// fail on, or silently misread, is refused by New with ErrBadConfig,
// after the zero values take their defaults.
func TestNewRefusesOutOfRangeConfig(t *testing.T) {
	trees := ontology.Trees()
	for name, cfg := range map[string]Config{
		"negative epsilon":        {K: 5, Epsilon: -3},
		"negative quantum":        {K: 5, Quantum: -5},
		"NaN quantum":             {K: 5, Quantum: math.NaN()},
		"infinite quantum":        {K: 5, Quantum: math.Inf(1)},
		"negative tau":            {K: 5, Tau: -1},
		"negative loss threshold": {K: 5, LossThreshold: -0.1},
		"loss threshold 0.5":      {K: 5, LossThreshold: 0.5},
		"loss threshold 0.9":      {K: 5, LossThreshold: 0.9},
		"negative enum limit":     {K: 5, EnumLimit: -1},
		"unknown strategy":        {K: 5, Strategy: binning.Strategy(7)},
		"negative strategy":       {K: 5, Strategy: binning.Strategy(-1)},
		"column bound above one":  {K: 5, Metrics: &infoloss.Metrics{PerColumn: map[string]float64{"age": 1.5}}},
		"negative average bound":  {K: 5, Metrics: &infoloss.Metrics{Avg: -0.2}},
		"average bound above one": {K: 5, Metrics: &infoloss.Metrics{Avg: 2}},
		"negative column bound":   {K: 5, Metrics: &infoloss.Metrics{PerColumn: map[string]float64{"zip_code": -1}}},
	} {
		if _, err := New(trees, cfg); !errors.Is(err, ErrBadConfig) {
			t.Errorf("%s: New = %v, want ErrBadConfig", name, err)
		}
	}
	for name, cfg := range map[string]Config{
		"defaults":              {K: 5},
		"loss threshold 0.49":   {K: 5, LossThreshold: 0.49},
		"greedy":                {K: 5, Strategy: binning.StrategyGreedy},
		"bounds at the limits":  {K: 5, Metrics: &infoloss.Metrics{PerColumn: map[string]float64{"age": 0, "doctor": 1}, Avg: 1}},
		"explicit epsilon":      {K: 5, Epsilon: 2},
		"explicit enum limit":   {K: 5, EnumLimit: 10},
		"explicit quantum, tau": {K: 5, Quantum: 0.5, Tau: 3},
	} {
		if _, err := New(trees, cfg); err != nil {
			t.Errorf("%s: New = %v, want a framework", name, err)
		}
	}
}

// TestSaltConfigSingleSource is the regression test for the
// SaltPositionWithColumn / NoColumnSalt footgun: NoColumnSalt is the
// single source of truth, the effective SaltPositionWithColumn is always
// derived from it, and the contradictory combination is rejected instead
// of silently keeping the salt enabled.
func TestSaltConfigSingleSource(t *testing.T) {
	trees := ontology.Trees()

	fw, err := New(trees, Config{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !fw.Config().SaltPositionWithColumn {
		t.Error("default config must salt positions with the column name")
	}

	fw, err = New(trees, Config{K: 5, NoColumnSalt: true})
	if err != nil {
		t.Fatal(err)
	}
	if fw.Config().SaltPositionWithColumn {
		t.Error("NoColumnSalt must disable the position salt")
	}

	// Previously this combination silently left the salt on; now it is a
	// configuration error.
	_, err = New(trees, Config{K: 5, NoColumnSalt: true, SaltPositionWithColumn: true})
	if err == nil {
		t.Fatal("conflicting NoColumnSalt + SaltPositionWithColumn accepted")
	}
	if !strings.Contains(err.Error(), "NoColumnSalt") {
		t.Errorf("conflict error should name the fields: %v", err)
	}

	// An explicit (redundant) SaltPositionWithColumn without NoColumnSalt
	// stays valid and keeps the salt on.
	fw, err = New(trees, Config{K: 5, SaltPositionWithColumn: true})
	if err != nil {
		t.Fatal(err)
	}
	if !fw.Config().SaltPositionWithColumn {
		t.Error("explicit salt request must keep the salt on")
	}
}

// TestProtectDetectWorkersDeterminism asserts the pipeline-wide
// guarantee: the published table, the provenance record and the
// detection verdict are identical for Workers ∈ {1, 2, 8}.
func TestProtectDetectWorkersDeterminism(t *testing.T) {
	tbl := testData(t, 3000)
	key := crypt.NewWatermarkKeyFromSecret("owner", 25)

	type outcome struct {
		tableCSV string
		provJSON string
		mark     string
		loss     float64
	}
	var base *outcome
	for _, workers := range []int{1, 2, 8} {
		fw, err := New(ontology.Trees(), Config{K: 15, AutoEpsilon: true, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		p, err := fw.ProtectContext(context.Background(), tbl, key)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var sb strings.Builder
		if err := p.Table.WriteCSV(&sb); err != nil {
			t.Fatal(err)
		}
		provData, err := json.Marshal(p.Provenance)
		if err != nil {
			t.Fatal(err)
		}
		det, err := fw.DetectContext(context.Background(), p.Table, p.Provenance, key)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := &outcome{
			tableCSV: sb.String(),
			provJSON: string(provData),
			mark:     det.Result.Mark.String(),
			loss:     det.MarkLoss,
		}
		if base == nil {
			base = got
			if !det.Match {
				t.Fatal("sequential run does not even detect its own mark")
			}
			continue
		}
		if got.tableCSV != base.tableCSV {
			t.Errorf("workers=%d: protected table differs from sequential", workers)
		}
		if got.provJSON != base.provJSON {
			t.Errorf("workers=%d: provenance differs:\n%s\nvs\n%s", workers, got.provJSON, base.provJSON)
		}
		if got.mark != base.mark || got.loss != base.loss {
			t.Errorf("workers=%d: detection (%s, %v) differs from sequential (%s, %v)",
				workers, got.mark, got.loss, base.mark, base.loss)
		}
	}
}
