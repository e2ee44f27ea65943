package dbgen

import "qfe/internal/obs"

// Pre-resolved handles for the generator's round-phase timers (DESIGN.md
// §13). Every observation is a handful of atomic adds — the hot-path
// contract — so instrumentation never perturbs the determinism or the
// allocation profile the bench guard pins.
var (
	mRounds = obs.NewCounter("qfe_engine_rounds_total",
		"Database-generator rounds completed (one per feedback round).")
	mNoSplit = obs.NewCounter("qfe_engine_nosplit_total",
		"Generator rounds ending in ErrNoSplit (candidates indistinguishable).")
	mCandidates = obs.NewSize("qfe_engine_candidates",
		"Candidate queries handed to the generator per round (|QC|).")
	mSkylinePairs = obs.NewSize("qfe_engine_skyline_pairs",
		"Skyline (STC,DTC) pairs surviving Algorithm 3 per round (|SP|).")
	mGenerate = obs.NewLatency("qfe_engine_dbgen_seconds",
		"Whole database-generator invocation (Algorithm 2 end to end).")
	mSkyline = obs.NewLatency("qfe_engine_skyline_seconds",
		"Algorithm 3 skyline (STC,DTC) pair enumeration per round.")
	mAlg4 = obs.NewLatency("qfe_engine_alg4_seconds",
		"Algorithm 4 subset search per round (all levels).")
	mAlg4Enumerate = obs.NewLatency("qfe_engine_alg4_enumerate_seconds",
		"Algorithm 4 candidate-set enumeration stage per round.")
	mAlg4Score = obs.NewLatency("qfe_engine_alg4_score_seconds",
		"Algorithm 4 cost-model scoring stage per round.")
	mAlg4TopK = obs.NewLatency("qfe_engine_alg4_topk_seconds",
		"Algorithm 4 in-order prune/rank (top-k) stage per round.")
	mConcretize = obs.NewLatency("qfe_engine_concretize_seconds",
		"Concretization of chosen pair sets into cell edits per round.")
	mBatchEval = obs.NewLatency("qfe_engine_batch_eval_seconds",
		"Per-round candidate evaluation (one shared batch scan).")
)
