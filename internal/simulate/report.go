package simulate

import (
	"encoding/json"
	"io"
	"math"
	"sort"
	"time"
)

// SessionResult is the per-scenario outcome. Every field serialized to JSON
// is deterministic for a fixed (corpus, options) pair — timing lives in the
// report-level Timing block — so reports from repeated runs are identical
// modulo that block.
type SessionResult struct {
	Name       string `json:"name"`
	Kind       string `json:"kind"`
	Candidates int    `json:"candidates"`
	Rounds     int    `json:"rounds"`
	// Converged reports the session reached an outcome with the target's
	// candidate class surviving (core's Found).
	Converged bool `json:"converged"`
	// Identified means a single query remained; Ambiguous means a provably
	// indistinguishable class remained.
	Identified bool `json:"identified"`
	Ambiguous  bool `json:"ambiguous"`
	Abandoned  bool `json:"abandoned"`
	// Violations lists invariant failures: the target's result vanishing
	// from a presented round, the target pruned despite target feedback, or
	// the converged query disagreeing with the target on the original or a
	// fresh database (the metamorphic differential oracle).
	Violations []string `json:"violations,omitempty"`
	// Divergent counts remaining-class members that are NOT result-
	// equivalent to the target on some fresh database — candidates the
	// modification space of D provably cannot separate but fresh data can.
	// Informative, not a violation: it measures residual ambiguity.
	Divergent int    `json:"divergent,omitempty"`
	Error     string `json:"error,omitempty"`

	// Timings, reported only in aggregate (Timing block).
	qgen      time.Duration
	latencies []time.Duration
}

// Percentiles summarises a latency distribution in milliseconds.
type Percentiles struct {
	P50 float64 `json:"p50ms"`
	P90 float64 `json:"p90ms"`
	P99 float64 `json:"p99ms"`
	Max float64 `json:"maxMs"`
}

// RoundsBucket is one bar of the rounds-to-converge histogram.
type RoundsBucket struct {
	Rounds int `json:"rounds"`
	Count  int `json:"count"`
}

// Timing is the report's non-deterministic block: wall-clock quantities and
// concurrency high-water marks. Reproducibility of a run is judged on the
// report with this block ignored.
type Timing struct {
	WallMS       float64     `json:"wallMs"`
	QGenMS       float64     `json:"qgenMs"` // summed over sessions
	RoundLatency Percentiles `json:"roundLatency"`
	PeakSessions int         `json:"peakSessions"`
}

// Report is the simulation run's full result (written as BENCH_sim.json by
// qfe-sim).
type Report struct {
	Corpus       string `json:"corpus,omitempty"`
	Policy       string `json:"policy"`
	Workers      int    `json:"workers"`
	Server       string `json:"server,omitempty"`
	FreshDBs     int    `json:"freshDBs"`
	InjectTarget bool   `json:"injectTarget"`

	Scenarios  int `json:"scenarios"`
	Converged  int `json:"converged"`
	Identified int `json:"identified"`
	Ambiguous  int `json:"ambiguous"`
	NotFound   int `json:"notFound"`
	Abandoned  int `json:"abandoned"`
	Errors     int `json:"errors"`

	ConvergenceRate     float64 `json:"convergenceRate"`
	InvariantViolations int     `json:"invariantViolations"`
	Divergent           int     `json:"divergent"`
	TotalRounds         int     `json:"totalRounds"`

	RoundsHistogram []RoundsBucket  `json:"roundsHistogram"`
	Sessions        []SessionResult `json:"sessions"`

	Timing Timing `json:"timing"`
}

// WriteJSON writes the report as indented JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// aggregate folds per-session results into the report's counters.
func (r *Report) aggregate(results []SessionResult, wall time.Duration, peak int) {
	r.Sessions = results
	r.Scenarios = len(results)
	hist := map[int]int{}
	var lats []time.Duration
	var qgen time.Duration
	for i := range results {
		s := &results[i]
		r.TotalRounds += s.Rounds
		r.InvariantViolations += len(s.Violations)
		r.Divergent += s.Divergent
		switch {
		case s.Error != "":
			r.Errors++
		case s.Abandoned:
			r.Abandoned++
		case s.Converged:
			r.Converged++
			hist[s.Rounds]++
			if s.Identified {
				r.Identified++
			}
			if s.Ambiguous {
				r.Ambiguous++
			}
		default:
			r.NotFound++
		}
		lats = append(lats, s.latencies...)
		qgen += s.qgen
	}
	if r.Scenarios > 0 {
		r.ConvergenceRate = round4(float64(r.Converged) / float64(r.Scenarios))
	}
	rounds := make([]int, 0, len(hist))
	for k := range hist {
		rounds = append(rounds, k)
	}
	sort.Ints(rounds)
	for _, k := range rounds {
		r.RoundsHistogram = append(r.RoundsHistogram, RoundsBucket{Rounds: k, Count: hist[k]})
	}
	sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
	r.Timing = Timing{
		WallMS: ms(wall),
		QGenMS: ms(qgen),
		RoundLatency: Percentiles{
			P50: ms(percentile(lats, 0.50)),
			P90: ms(percentile(lats, 0.90)),
			P99: ms(percentile(lats, 0.99)),
			Max: ms(percentile(lats, 1.00)),
		},
		PeakSessions: peak,
	}
}

// percentile returns the q-quantile of an ascending-sorted slice (nearest-
// rank method).
func percentile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func ms(d time.Duration) float64 {
	return math.Round(float64(d.Microseconds())/1000*1000) / 1000
}

func round4(f float64) float64 { return math.Round(f*10000) / 10000 }
