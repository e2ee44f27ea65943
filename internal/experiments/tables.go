package experiments

import (
	"fmt"
	"time"

	"qfe/internal/algebra"
	"qfe/internal/core"
	"qfe/internal/db"
	"qfe/internal/dbgen"
	"qfe/internal/feedback"
	"qfe/internal/qbo"
)

// Table1 reproduces the paper's Table 1: per-round statistics for Q1 and Q2
// on the scientific database under worst-case feedback (β = 1, default δ).
// Rows: # of queries, # of query subsets, # of skyline pairs, execution
// time, dbCost, resultCost, avgResultCost — one column per iteration.
func Table1(qname string) (*TextTable, error) {
	sc, err := ScientificScenario(qname, 19)
	if err != nil {
		return nil, err
	}
	out, err := sc.Run(sessionConfig(), feedback.WorstCase{})
	if err != nil {
		return nil, err
	}
	return perRoundTable(fmt.Sprintf("Table 1: per-round statistics for %s (|QC|=%d, worst-case feedback)",
		qname, len(sc.QC)), out), nil
}

// perRoundTable lays iterations out as columns, like the paper's Table 1.
func perRoundTable(title string, out *core.Outcome) *TextTable {
	n := len(out.Iterations)
	header := make([]string, n+1)
	header[0] = "Iteration No."
	for i := 0; i < n; i++ {
		header[i+1] = itoa(i + 1)
	}
	rowNames := []string{"# of queries", "# of query subsets", "# of skyline pairs",
		"Execution time", "dbCost", "resultCost", "avgResultCost"}
	rows := make([][]string, len(rowNames))
	for ri := range rows {
		rows[ri] = make([]string, n+1)
		rows[ri][0] = rowNames[ri]
	}
	for i, it := range out.Iterations {
		exec := it.ExecTime
		if i == 0 {
			exec += out.QueryGenTime // the paper folds query generation into round 1
		}
		rows[0][i+1] = itoa(it.NumQueries)
		rows[1][i+1] = itoa(it.NumSubsets)
		rows[2][i+1] = itoa(it.SkylinePairs)
		rows[3][i+1] = fmtDur(exec)
		rows[4][i+1] = itoa(it.DBCost)
		rows[5][i+1] = itoa(it.ResultCost)
		rows[6][i+1] = f2(it.AvgResultCost)
	}
	return &TextTable{Title: title, Header: header, Rows: rows}
}

// Table2 reproduces Table 2: the effect of the scale factor β ∈ {1..5} on
// the number of iterations and the total modification cost for Q3–Q6 on the
// baseball database.
func Table2() (*TextTable, error) {
	betas := []float64{1, 2, 3, 4, 5}
	t := &TextTable{
		Title:  "Table 2: effect of β (baseball): iterations | modification cost",
		Header: []string{"Query", "β=1", "β=2", "β=3", "β=4", "β=5"},
	}
	for _, qname := range []string{"Q3", "Q4", "Q5", "Q6"} {
		sc, err := BaseballScenario(qname, 19)
		if err != nil {
			return nil, err
		}
		row := []string{qname}
		for _, beta := range betas {
			cfg := sessionConfig()
			cfg.Gen.Cost.Beta = beta
			out, err := sc.Run(cfg, feedback.WorstCase{})
			if err != nil {
				return nil, fmt.Errorf("%s β=%v: %w", qname, beta, err)
			}
			row = append(row, fmt.Sprintf("%d | %d", len(out.Iterations), out.TotalModCost))
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Table3 reproduces Table 3: the effect of the time threshold δ on the
// number of iterations, modification cost and execution time for Q1 and Q2
// (scientific). The paper sweeps 0.1–10 s; our scaled engine sweeps the
// same ratios around the scaled default (see DeltaScale).
func Table3(qname string) (*TextTable, error) {
	sc, err := ScientificScenario(qname, 19)
	if err != nil {
		return nil, err
	}
	ratios := []float64{0.1, 0.2, 0.5, 1, 2, 5, 10} // × the paper's 1 s default
	t := &TextTable{
		Title:  fmt.Sprintf("Table 3: effect of δ on %s (δ columns in paper-equivalent seconds)", qname),
		Header: []string{"δ (paper s)", "# of iterations", "Modification cost", "Execution time"},
	}
	for _, ratio := range ratios {
		cfg := sessionConfig()
		cfg.Gen.Budget = dbgen.Budget{MaxDuration: time.Duration(float64(DeltaScale) * ratio)}
		out, err := sc.Run(cfg, feedback.WorstCase{})
		if err != nil {
			return nil, fmt.Errorf("δ ratio %v: %w", ratio, err)
		}
		t.Rows = append(t.Rows, []string{
			fmt.Sprintf("%.1f", ratio),
			itoa(len(out.Iterations)),
			itoa(out.TotalModCost),
			fmtDur(out.TotalTime),
		})
	}
	return t, nil
}

// Table4 reproduces Table 4: the per-iteration skyline size |SP| and the
// execution time of Algorithm 4 for Q1 and Q2 (scientific).
func Table4(qname string) (*TextTable, error) {
	sc, err := ScientificScenario(qname, 19)
	if err != nil {
		return nil, err
	}
	out, err := sc.Run(sessionConfig(), feedback.WorstCase{})
	if err != nil {
		return nil, err
	}
	n := len(out.Iterations)
	header := make([]string, n+1)
	header[0] = "Iteration No."
	for i := 0; i < n; i++ {
		header[i+1] = itoa(i + 1)
	}
	spRow := make([]string, n+1)
	timeRow := make([]string, n+1)
	spRow[0], timeRow[0] = "# of skyline pairs", "Alg.4 exec. time"
	for i, it := range out.Iterations {
		spRow[i+1] = itoa(it.SkylinePairs)
		timeRow[i+1] = fmtMs(it.Alg4Time)
	}
	return &TextTable{
		Title:  fmt.Sprintf("Table 4: Algorithm 4 per-iteration performance for %s", qname),
		Header: header,
		Rows:   [][]string{spRow, timeRow},
	}, nil
}

// Table5 reproduces Table 5: Algorithm 4's execution time as |SP| grows to
// {200, 400, 600, 800, 1000} artificially enlarged skyline sets (scientific
// Q1 state, as in the paper's 2nd-iteration setup).
func Table5() (*TextTable, error) {
	sc, err := ScientificScenario("Q1", 19)
	if err != nil {
		return nil, err
	}
	joined, err := joinForScenario(sc)
	if err != nil {
		return nil, err
	}
	t := &TextTable{
		Title:  "Table 5: Algorithm 4 execution time for varying |SP|",
		Header: []string{"# of skyline pairs", "Exec. time"},
	}
	space, err := dbgen.NewSpace(joined, sc.QC)
	if err != nil {
		return nil, err
	}
	for _, n := range []int{200, 400, 600, 800, 1000} {
		// The paper runs Algorithm 4 uncapped and observes superlinear
		// growth; our implementation carries safety caps, so the evaluation
		// budget is scaled with |SP| to preserve the growth shape while
		// keeping the experiment re-runnable (see EXPERIMENTS.md).
		cfg := sessionConfig()
		opts := cfg.Gen
		opts.MaxFrontier = 512
		opts.MaxSetsEvaluated = 600 * n
		gen, err := dbgen.New(db.NewKeys(sc.DB), joined, space, sc.R, opts, cfg.Parallelism)
		if err != nil {
			return nil, err
		}
		_, stats := gen.SkylinePairs()
		sp := gen.EnumerateScoredPairs(n)
		t0 := time.Now()
		sets := gen.PickSubsets(sp, stats.X)
		el := time.Since(t0)
		if len(sets) == 0 {
			return nil, fmt.Errorf("experiments: table5: no candidate sets for |SP|=%d", len(sp))
		}
		t.Rows = append(t.Rows, []string{itoa(len(sp)), fmtDur(el)})
	}
	return t, nil
}

// Table6 reproduces Table 6: the effect of the candidate-set size |QC| ∈
// {5, 10, 20, 40, 60, 80} for Q2, with the extra candidates produced by
// §7.6-style constant perturbation. S1 ⊂ S2 ⊂ … ⊂ S6 and Q2 ∈ S1.
func Table6() (*TextTable, *TextTable, error) {
	pool, sc, err := table6Pool()
	if err != nil {
		return nil, nil, err
	}
	sizes := []int{5, 10, 20, 40, 60, 80}
	t := &TextTable{
		Title:  "Table 6: effect of the number of candidate queries on Q2",
		Header: []string{"Candidate query set", "S1", "S2", "S3", "S4", "S5", "S6"},
	}
	rows := map[string][]string{
		"# of candidate queries":     {"# of candidate queries"},
		"# of selection attributes":  {"# of selection attributes"},
		"# of iterations":            {"# of iterations"},
		"Execution time":             {"Execution time"},
		"Modification cost":          {"Modification cost"},
		"Avg. dbCost per round":      {"Avg. dbCost per round"},
		"Avg. resultCost per result": {"Avg. resultCost per result"},
	}
	breakdown := &TextTable{
		Title:  "Table 7: breakdown of first iteration's running time (seconds)",
		Header: []string{"Query set", "S1", "S2", "S3", "S4", "S5", "S6"},
	}
	bdRows := map[string][]string{
		"Algorithm 3": {"Algorithm 3"},
		"Algorithm 4": {"Algorithm 4"},
		"Modify DB":   {"Modify DB"},
		"Total":       {"Total"},
	}
	for _, n := range sizes {
		if n > len(pool) {
			n = len(pool)
		}
		qc := pool[:n]
		attrs := map[string]bool{}
		for _, q := range qc {
			for _, a := range q.Pred.Attrs() {
				attrs[a] = true
			}
		}
		sub := &Scenario{Name: fmt.Sprintf("table6/S%d", n), DB: sc.DB, Target: sc.Target, R: sc.R, QC: qc}
		out, err := sub.Run(sessionConfig(), feedback.WorstCase{})
		if err != nil {
			return nil, nil, fmt.Errorf("table6 |QC|=%d: %w", n, err)
		}
		iters := len(out.Iterations)
		sumDB, sumRes, sumSubsets := 0, 0, 0
		for _, it := range out.Iterations {
			sumDB += it.DBCost
			sumRes += it.ResultCost
			sumSubsets += it.NumSubsets
		}
		avgDB, avgRes := 0.0, 0.0
		if iters > 0 {
			avgDB = float64(sumDB) / float64(iters)
		}
		if sumSubsets > 0 {
			avgRes = float64(sumRes) / float64(sumSubsets)
		}
		rows["# of candidate queries"] = append(rows["# of candidate queries"], itoa(len(qc)))
		rows["# of selection attributes"] = append(rows["# of selection attributes"], itoa(len(attrs)))
		rows["# of iterations"] = append(rows["# of iterations"], itoa(iters))
		rows["Execution time"] = append(rows["Execution time"], fmtDur(out.TotalTime))
		rows["Modification cost"] = append(rows["Modification cost"], itoa(out.TotalModCost))
		rows["Avg. dbCost per round"] = append(rows["Avg. dbCost per round"], f2(avgDB))
		rows["Avg. resultCost per result"] = append(rows["Avg. resultCost per result"], f2(avgRes))

		if iters > 0 {
			it := out.Iterations[0]
			bdRows["Algorithm 3"] = append(bdRows["Algorithm 3"], fmtDur(it.Alg3Time))
			bdRows["Algorithm 4"] = append(bdRows["Algorithm 4"], fmtDur(it.Alg4Time))
			bdRows["Modify DB"] = append(bdRows["Modify DB"], fmtDur(it.ConcretizeTime))
			bdRows["Total"] = append(bdRows["Total"], fmtDur(it.ExecTime))
		}
	}
	for _, name := range []string{"# of candidate queries", "# of selection attributes",
		"# of iterations", "Execution time", "Modification cost",
		"Avg. dbCost per round", "Avg. resultCost per result"} {
		t.Rows = append(t.Rows, rows[name])
	}
	for _, name := range []string{"Algorithm 3", "Algorithm 4", "Modify DB", "Total"} {
		breakdown.Rows = append(breakdown.Rows, bdRows[name])
	}
	return t, breakdown, nil
}

// table6Pool builds the nested candidate pool: the target Q2 first, then
// the QBO candidates, then perturbed variants up to 80.
func table6Pool() ([]*algebra.Query, *Scenario, error) {
	sc, err := ScientificScenario("Q2", 19)
	if err != nil {
		return nil, nil, err
	}
	pool := []*algebra.Query{sc.Target}
	seen := map[string]bool{sc.Target.Key(): true}
	for _, q := range sc.QC {
		if !seen[q.Key()] {
			seen[q.Key()] = true
			pool = append(pool, q)
		}
	}
	extra, err := qbo.PerturbConstants(sc.DB, sc.R, pool, 80-len(pool))
	if err != nil {
		return nil, nil, err
	}
	pool = append(pool, extra...)
	return pool, sc, nil
}

func joinForScenario(sc *Scenario) (*db.Joined, error) {
	return db.Join(sc.DB, sc.QC[0].Tables)
}
