package qbo_test

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash"
	"testing"

	"qfe/internal/algebra"
	"qfe/internal/datasets"
	"qfe/internal/db"
	"qfe/internal/qbo"
	"qfe/internal/relation"
	"qfe/internal/scenario"
)

// contractInput is one (D, R) pair handed to the generator.
type contractInput struct {
	name string
	d    *db.Database
	r    *relation.Relation
}

// paperContractInputs are the paper's nine instances: R is each target
// query's result on its dataset.
func paperContractInputs(t *testing.T) []contractInput {
	t.Helper()
	sci := datasets.NewScientific()
	bb := datasets.NewBaseball()
	ad := datasets.NewAdult()
	list := []struct {
		name string
		d    *db.Database
		q    *algebra.Query
	}{
		{"scientific/Q1", sci.DB, sci.Q1}, {"scientific/Q2", sci.DB, sci.Q2},
		{"baseball/Q3", bb.DB, bb.Q3}, {"baseball/Q4", bb.DB, bb.Q4},
		{"baseball/Q5", bb.DB, bb.Q5}, {"baseball/Q6", bb.DB, bb.Q6},
		{"adult/U1", ad.DB, ad.Targets[0]}, {"adult/U2", ad.DB, ad.Targets[1]},
		{"adult/U3", ad.DB, ad.Targets[2]},
	}
	out := make([]contractInput, len(list))
	for i, l := range list {
		r, err := l.q.Evaluate(l.d)
		if err != nil {
			t.Fatalf("%s: %v", l.name, err)
		}
		out[i] = contractInput{name: l.name, d: l.d, r: r}
	}
	return out
}

// generatedContractInputs are the first n scenarios of a generated corpus.
// Corpus entries are independent of n, so a prefix is the same inputs a
// longer corpus starts with.
func generatedContractInputs(t *testing.T, seed int64, n int, opts scenario.GenOptions) []contractInput {
	t.Helper()
	scs, err := scenario.GenerateCorpus(seed, n, opts)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]contractInput, len(scs))
	for i, sc := range scs {
		out[i] = contractInput{name: fmt.Sprintf("seed%d/%s", seed, sc.Name), d: sc.DB, r: sc.R}
	}
	return out
}

// checkCandidates runs one Generate per input at qfe-server's cap of 32,
// fails on every candidate whose scalar evaluation is not bag-equal to R,
// and folds each candidate's "Name|Key" line into h.
func checkCandidates(t *testing.T, inputs []contractInput, h hash.Hash) {
	t.Helper()
	cfg := qbo.DefaultConfig()
	cfg.MaxCandidates = 32
	for _, in := range inputs {
		qs, err := qbo.Generate(in.d, in.r, cfg)
		if err != nil {
			t.Fatalf("%s: %v", in.name, err)
		}
		joins := map[string]*relation.Relation{} // each join's rows
		for _, q := range qs {
			rel, ok := joins[q.JoinSchemaKey()]
			if !ok {
				j, err := db.Join(in.d, q.Tables)
				if err != nil {
					t.Fatalf("%s: %s: %v", in.name, q, err)
				}
				rel = j.Relation()
				joins[q.JoinSchemaKey()] = rel
			}
			res, err := q.EvaluateOnJoined(rel)
			if err != nil {
				t.Errorf("%s: %s: %v", in.name, q, err)
			} else if !res.BagEqual(in.r) {
				t.Errorf("%s: %s %s does not produce R", in.name, q.Name, q)
			}
			fmt.Fprintf(h, "%s|%s\n", q.Name, q.Key())
		}
	}
}

// The inputs TestGenerateContractAndIdentity covers — the paper's nine
// instances and the whole corpora of the winnow and service benchmarks
// (990 scenarios of seed 1, 1350 of seed 3) — and the first 8 bytes of the
// SHA-256 over their candidates' "Name|Key\n" lines as the generator
// produced them before its exclusion tests moved to reject bitsets
// (DESIGN.md §15). Print the digests of the current code with
//
//	go test -run TestGenerateContractAndIdentity -v ./internal/qbo
const (
	contractSeed1Inputs = 990
	contractSeed3Inputs = 1350

	wantPaperDigest = "a3d1fb8095fc8b95"
	wantSeed1Digest = "fedb0e2ce749c75c"
	wantSeed3Digest = "5609bf313792008d"
)

// TestGenerateContractAndIdentity pins the generator's contract — every
// candidate reproduces R — on real inputs, including the candidates the
// cluster DNF emits without evaluating them, and pins the candidate lists
// themselves against the digests above.
func TestGenerateContractAndIdentity(t *testing.T) {
	seed3 := scenario.DefaultGenOptions()
	seed3.Rows = scenario.MinMax{Min: 6, Max: 12}
	sets := []struct {
		name   string
		inputs func(*testing.T) []contractInput
		want   string
	}{
		{"paper", paperContractInputs, wantPaperDigest},
		{"seed1", func(t *testing.T) []contractInput {
			return generatedContractInputs(t, 1, contractSeed1Inputs, scenario.DefaultGenOptions())
		}, wantSeed1Digest},
		{"seed3", func(t *testing.T) []contractInput {
			return generatedContractInputs(t, 3, contractSeed3Inputs, seed3)
		}, wantSeed3Digest},
	}
	for _, s := range sets {
		t.Run(s.name, func(t *testing.T) {
			inputs := s.inputs(t)
			h := sha256.New()
			checkCandidates(t, inputs, h)
			got := hex.EncodeToString(h.Sum(nil)[:8])
			t.Logf("%s: %d inputs, candidate digest %s", s.name, len(inputs), got)
			if got != s.want {
				t.Errorf("%s: candidate digest %s, want %s", s.name, got, s.want)
			}
		})
	}
}
