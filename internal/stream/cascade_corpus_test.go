package stream_test

import (
	"math"
	"sync"
	"testing"

	"inaudible/internal/core"
	"inaudible/internal/defense"
	"inaudible/internal/experiment"
	"inaudible/internal/stream"
)

var (
	corpusOnce sync.Once
	corpusRecs []experiment.Recording
	corpusErr  error
)

// quickCorpus builds the E9-E13 style simulated corpus (quick grid,
// legit then attack recordings) once per test binary.
func quickCorpus(t *testing.T) []experiment.Recording {
	t.Helper()
	corpusOnce.Do(func() {
		cfg := experiment.QuickCorpusConfig(experiment.DefaultCorpusConfig(core.DefaultScenario()))
		legit, err := experiment.BuildLegit(cfg)
		if err != nil {
			corpusErr = err
			return
		}
		attacks, err := experiment.BuildAttacks(cfg)
		if err != nil {
			corpusErr = err
			return
		}
		corpusRecs = append(legit, attacks...)
	})
	if corpusErr != nil {
		t.Fatalf("building corpus: %v", corpusErr)
	}
	return corpusRecs
}

// TestCascadeCorpusParity is the false-negative budget gate: over the
// E9-E13 style simulated corpus (quick grid), the cascade must not
// miss any attack the always-on Guard catches — zero added false
// negatives. Added false positives are reported but not gated (they
// are a cost knob, not a security hole). The tier05 subtest holds the
// tier-0.5 decimated coarse triage (PR 8) to the same zero-FN budget:
// the aliasing of its naive decimator folds out-of-band energy INTO
// the analysis bands, so the veto is fail-open by construction, and
// this gate pins that on real corpus audio.
//
// This test lives in an external package because building the corpus
// pulls in internal/core, which reaches back into stream via the sim
// chain — an import cycle for an in-package test.
func TestCascadeCorpusParity(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus simulation in -short mode")
	}
	recs := quickCorpus(t)
	det := stream.TestDetectorForParity(t)

	for _, tc := range []struct {
		name string
		cfg  stream.CascadeConfig
	}{
		{"base", stream.CascadeConfig{}},
		{"tier05", stream.CascadeConfig{Tier05: true}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var addedFN, addedFP, checked, vetoes int
			for _, rec := range recs {
				rate := rec.Signal.Rate
				want := stream.GuardFinalForParity(det, rate, rec.Signal)
				got := stream.CascadeFinalForParity(det, rate, rec.Signal, tc.cfg)
				checked++
				vetoes += got.Cascade.Tier05Vetoes
				if want.Attack && !got.Attack {
					addedFN++
					t.Errorf("added false negative on %s (guard score %+.3f, cascade score %+.3f, cascade %+v)",
						rec.Label, want.Score, got.Score, *got.Cascade)
				}
				if !want.Attack && got.Attack {
					addedFP++
					t.Logf("added false positive on %s (guard score %+.3f, cascade score %+.3f)",
						rec.Label, want.Score, got.Score)
				}
			}
			if checked == 0 {
				t.Fatalf("empty corpus")
			}
			t.Logf("corpus parity over %d recordings: %d added FN (budget 0), %d added FP, %d tier-0.5 vetoes",
				checked, addedFN, addedFP, vetoes)
			if addedFN != 0 {
				t.Fatalf("cascade added %d false negatives over %d recordings; budget is zero", addedFN, checked)
			}
		})
	}
}

// TestAnalyzerCorpusParity holds the streaming analyzer to the batch
// extractor on simulated corpus audio, not only on synthetic signals:
// for every recording the four spectral features must match within
// exactTol and LowEnvCorr within corrTol (the tolerances of the
// in-package parity tests). The worst LowEnvCorr gap is logged so drift
// in the decimated correlation chains shows long before the bound.
func TestAnalyzerCorpusParity(t *testing.T) {
	if testing.Short() {
		t.Skip("corpus simulation in -short mode")
	}
	const (
		exactTol = 1e-9
		corrTol  = 0.15
	)
	var worst float64
	var worstLabel string
	for _, rec := range quickCorpus(t) {
		want := defense.Extract(rec.Signal)
		got := stream.Extract(rec.Signal, 960)
		for _, c := range []struct {
			name      string
			got, want float64
		}{
			{"TraceSNR", got.TraceSNR, want.TraceSNR},
			{"HighSNR", got.HighSNR, want.HighSNR},
			{"Sub50LogRatio", got.Sub50LogRatio, want.Sub50LogRatio},
			{"HighLogRatio", got.HighLogRatio, want.HighLogRatio},
		} {
			if math.Abs(c.got-c.want) > exactTol {
				t.Errorf("%s/%s: streaming %.12g vs batch %.12g", rec.Label, c.name, c.got, c.want)
			}
		}
		gap := math.Abs(got.LowEnvCorr - want.LowEnvCorr)
		if gap > corrTol {
			t.Errorf("%s/LowEnvCorr: streaming %.4f vs batch %.4f (tol %g)", rec.Label, got.LowEnvCorr, want.LowEnvCorr, corrTol)
		}
		if gap >= worst {
			worst, worstLabel = gap, rec.Label
		}
	}
	t.Logf("worst LowEnvCorr gap %.4f (%s)", worst, worstLabel)
}
