// Command qfebench is the repository's benchmark. One invocation runs one
// workload against the unchanged QFE program, checks every output the
// program produced, prints each metric by name with its unit and sample
// count, and ends with one JSON line for automated comparison:
//
//	bash qfebench/run.sh --workload winnow|paper|service --seed N --seconds S --trace 0|1
//
// Workloads (the reasons for each are recorded in BENCHMARK.json and
// qfebench/layers.json):
//
//   - winnow: closed loop, one client, in process. Small generated
//     scenarios, each session run to its outcome under the target oracle;
//     the per-round search (Alg. 3/4) dominates.
//   - paper: closed loop, one client, in process. The paper's nine
//     instances (scientific Q1–Q2, baseball Q3–Q6, adult U1–U3) in whole
//     passes; candidate generation and batch evaluation over 4–7k-row
//     tables dominate.
//   - service: closed loop, one load process with nproc clients, against
//     qfe-router in front of two qfe-server -wal workers; the HTTP, JSON,
//     session-lock, proxy and WAL layers sit on every request. It is a
//     closed loop, not an open one, because on a 2-vCPU VM open-loop latency
//     medians moved 19–46% between identical runs, more than any bound the
//     benchmark may set.
//
// With --trace 0 the JSON line carries the end-to-end metrics, measured
// with no tracing at all. With --trace 1 the same work runs with spans
// around every call the benchmark makes into a layer, plus obs-instrument
// deltas, and the JSON line carries the per-layer metrics; the text report
// adds the per-layer ledger of first-round and round time.
package main

import (
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
)

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	bin      string // directory holding the built qfe-server and qfe-router
	work     string // working directory for WAL segments and span files
}

// metricLine is one printed metric.
type metricLine struct {
	Name  string
	Value float64
	Unit  string
	N     int    // samples (operations or sessions) behind the value
	Note  string // why it is omitted, or what it covers
	Skip  bool   // omitted: not measured on this workload, or too few samples
}

// report is everything one run prints.
type report struct {
	Workload   string
	Design     []string // loop type, clients or rate, inputs
	E2E        []metricLine
	Layers     []metricLine
	Ledgers    []ledgerTable
	Digest     string
	Sessions   int
	Attempted  int
	Failed     int
	Violations []string
	Notes      []string
	tr         *tracer
}

// ledgerTable is the per-layer split of one kind of measured time.
type ledgerTable struct {
	Name    string // "first_round", "round", ...
	TotalMs float64
	Calls   int
	Parts   []part
}

func (r *report) add(m metricLine)        { r.E2E = append(r.E2E, m) }
func (r *report) layer(m metricLine)      { r.Layers = append(r.Layers, m) }
func (r *report) violate(msg string)      { r.Violations = append(r.Violations, msg) }
func (r *report) note(f string, a ...any) { r.Notes = append(r.Notes, fmt.Sprintf(f, a...)) }

// e2eNames are the end-to-end metrics of the JSON line (BENCHMARK.json
// "end_to_end"); every workload measures each of them. First-round and
// round time enter as means — the paper's per-iteration time — because
// every run does the same sessions, so a mean moves only with the program
// and the machine, while the medians of these wide distributions moved
// 10–23% between identical runs. The text report adds the medians, the
// tails where a run holds ≥100 operations of their kind, reads (service
// only) and failed_frac (0 in process, where nothing is refused).
var e2eNames = []string{
	"setup_s", "sessions_per_s", "first_round_mean_ms", "round_mean_ms",
	"rounds_per_session", "modcost_per_session", "identified_frac", "peak_rss_mb",
}

// layerNames are the per-layer metrics of the traced JSON line
// (BENCHMARK.json "per_layer"): those measured on every workload. Layers a
// workload bypasses (service, wal, cluster, net in process; qbo's own time
// on service, where it runs inside the worker) appear only in the text
// report, marked as bypassed.
var layerNames = []string{
	"core.round_ms_per_round", "dbgen.candidates_per_round",
	"dbgen.alg4_ms_per_round", "dbgen.alg4_enumerate_ms_per_round",
	"dbgen.alg4_score_ms_per_round", "dbgen.alg4_topk_ms_per_round",
	"dbgen.skyline_ms_per_round", "dbgen.skyline_pairs_per_round",
	"dbgen.concretize_ms_per_round", "dbgen.nosplit_frac",
	"algebra.batch_eval_ms_per_round", "algebra.queries_per_scan",
	"evalcache.hit_frac", "evalcache.evictions",
	"ledger.engine_share", "ledger.unattributed_share",
	"runtime.alloc_mb_per_session", "runtime.gc_cpu_frac",
	"client.oracle_ms_per_round", "trace.overhead_frac",
}

//go:embed layers.json
var layersJSON []byte

// prediction is one row of the layer-prediction table in layers.json.
type prediction struct {
	Metrics []string `json:"metrics"`
	Source  string   `json:"source"`
	Moves   []string `json:"should_move"`
	On      []string `json:"on"`
	FlatOn  []string `json:"predicted_flat_on"`
}

// dominance is a predicted dominant layer for one workload and kind of time.
type dominance struct {
	Workload string   `json:"workload"`
	Ledger   string   `json:"ledger"`
	Layers   []string `json:"layers"`
}

type layerTable struct {
	Predictions []prediction `json:"predictions"`
	Dominant    []dominance  `json:"dominant"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	var o options
	fs := flag.NewFlagSet("qfebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	fs.StringVar(&o.workload, "workload", "", "winnow, paper or service")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: the order of the sessions")
	fs.IntVar(&o.seconds, "seconds", 30, "run length the workload's amount of work is sized to")
	traceFlag := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	fs.StringVar(&o.bin, "bin", "", "directory with the built qfe-server and qfe-router (service only)")
	fs.StringVar(&o.work, "work", ".bench_build/run", "working directory for WAL segments and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = *traceFlag == 1
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(stderr, "qfebench: --trace must be 0 or 1")
		return 2
	}
	if o.seconds < 1 {
		fmt.Fprintln(stderr, "qfebench: --seconds must be at least 1")
		return 2
	}
	var table layerTable
	if err := json.Unmarshal(layersJSON, &table); err != nil {
		fmt.Fprintln(stderr, "qfebench: layers.json:", err)
		return 1
	}

	var rep *report
	var err error
	switch o.workload {
	case "winnow":
		rep, err = runWinnow(o)
	case "paper":
		rep, err = runPaper(o)
	case "service":
		rep, err = runService(o)
	default:
		fmt.Fprintf(stderr, "qfebench: unknown workload %q (want winnow, paper or service)\n", o.workload)
		return 2
	}
	if err != nil {
		fmt.Fprintln(stderr, "qfebench:", err)
		return 1
	}
	if path, err := rep.tr.write(o.work, fmt.Sprintf("spans-%s-seed%d.json", rep.Workload, o.seed)); err != nil {
		rep.note("writing spans: %v", err)
	} else if path != "" {
		rep.note("%d spans written to %s", len(rep.tr.spans), path)
	}
	printReport(stdout, rep, o, table)
	line, err := resultLine(rep, o.trace)
	if err != nil {
		fmt.Fprintln(stderr, "qfebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, line)
	if len(rep.Violations) > 0 {
		return 1
	}
	return 0
}

// resultLine is the final JSON object: the end-to-end metrics, or with
// trace the per-layer ones.
func resultLine(rep *report, trace bool) (string, error) {
	names, lines := e2eNames, rep.E2E
	if trace {
		names, lines = layerNames, rep.Layers
	}
	byName := make(map[string]metricLine, len(lines))
	for _, m := range lines {
		byName[m.Name] = m
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]value, len(names))
	for _, n := range names {
		m, ok := byName[n]
		if !ok || m.Skip {
			return "", fmt.Errorf("workload %s did not measure %s", rep.Workload, n)
		}
		metrics[n] = value{m.Value, m.Unit}
	}
	data, err := json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{len(rep.Violations) == 0, rep.Attempted, rep.Failed, metrics})
	return string(data), err
}

func printReport(w io.Writer, rep *report, o options, table layerTable) {
	fmt.Fprintf(w, "qfebench workload=%s seed=%d seconds=%d trace=%d\n",
		rep.Workload, o.seed, o.seconds, boolInt(o.trace))
	for _, d := range rep.Design {
		fmt.Fprintf(w, "design   %s\n", d)
	}
	printMetrics(w, "metric", rep.E2E)
	if o.trace {
		printMetrics(w, "layer", rep.Layers)
		for _, l := range rep.Ledgers {
			fmt.Fprintf(w, "ledger   %s total=%.3fms calls=%d\n", l.Name, l.TotalMs, l.Calls)
			for _, p := range l.Parts {
				fmt.Fprintf(w, "ledger   %s %-14s %12.3f ms %7.2f%%\n", l.Name, p.Layer, p.Ms, 100*p.Share)
			}
		}
		for _, line := range predictionLines(rep, table) {
			fmt.Fprintf(w, "predict  %s\n", line)
		}
		for _, line := range checkDominance(rep, table) {
			fmt.Fprintf(w, "predict  %s\n", line)
		}
	}
	for _, n := range rep.Notes {
		fmt.Fprintf(w, "note     %s\n", n)
	}
	fmt.Fprintf(w, "outcome  sessions=%d attempted=%d failed=%d digest=%s\n",
		rep.Sessions, rep.Attempted, rep.Failed, rep.Digest)
	if len(rep.Violations) == 0 {
		fmt.Fprintln(w, "gate     PASS")
	} else {
		const show = 20
		for i, v := range rep.Violations {
			if i == show {
				fmt.Fprintf(w, "gate     ... %d more\n", len(rep.Violations)-show)
				break
			}
			fmt.Fprintf(w, "gate     FAIL %s\n", v)
		}
	}
}

func printMetrics(w io.Writer, kind string, ms []metricLine) {
	for _, m := range ms {
		if m.Skip {
			fmt.Fprintf(w, "%-8s %-36s omitted (%s)\n", kind, m.Name, m.Note)
			continue
		}
		note := ""
		if m.Note != "" {
			note = "  # " + m.Note
		}
		fmt.Fprintf(w, "%-8s %-36s %14.6f %-8s n=%d%s\n", kind, m.Name, m.Value, m.Unit, m.N, note)
	}
}

// predictionLines states, for this workload, which per-layer metrics the
// prediction table expects to move which end-to-end metrics here, and which
// it predicts flat, with the measured value beside each.
func predictionLines(rep *report, table layerTable) []string {
	measured := make(map[string]metricLine, len(rep.Layers))
	for _, m := range rep.Layers {
		measured[m.Name] = m
	}
	has := func(list []string) bool {
		for _, w := range list {
			if w == rep.Workload {
				return true
			}
		}
		return false
	}
	var out []string
	for _, p := range table.Predictions {
		role := ""
		switch {
		case has(p.On):
			role = "should move " + strings.Join(p.Moves, ", ")
		case has(p.FlatOn):
			role = "predicted flat"
		default:
			continue
		}
		var vals []string
		for _, name := range p.Metrics {
			m, ok := measured[name]
			switch {
			case !ok:
				vals = append(vals, name+"=UNKNOWN")
			case m.Skip:
				vals = append(vals, name+"=n/a")
			default:
				vals = append(vals, fmt.Sprintf("%s=%.4g", name, m.Value))
			}
		}
		out = append(out, fmt.Sprintf("%s: %s (%s)", role, strings.Join(vals, " "), p.Source))
	}
	return out
}

// checkDominance states, for each predicted dominant layer of this
// workload, whether the traced ledger agrees: the predicted layer (or, for
// a group, the sum of its layers) must have the largest share of that
// ledger. A mismatch is printed, never hidden.
func checkDominance(rep *report, table layerTable) []string {
	var out []string
	for _, d := range table.Dominant {
		if d.Workload != rep.Workload {
			continue
		}
		var l *ledgerTable
		for i := range rep.Ledgers {
			if rep.Ledgers[i].Name == d.Ledger {
				l = &rep.Ledgers[i]
			}
		}
		if l == nil {
			out = append(out, fmt.Sprintf("%s %s: no such ledger — MISMATCH", d.Workload, d.Ledger))
			continue
		}
		predicted := 0.0
		want := make(map[string]bool)
		for _, name := range d.Layers {
			want[name] = true
		}
		best, bestShare := "", -1.0
		for _, p := range l.Parts {
			if want[p.Layer] {
				predicted += p.Share
			} else if p.Share > bestShare {
				best, bestShare = p.Layer, p.Share
			}
		}
		verdict := "held"
		if predicted < bestShare {
			verdict = fmt.Sprintf("MISMATCH: %s has %.1f%%", best, 100*bestShare)
		}
		out = append(out, fmt.Sprintf("%s %s: dominant %s predicted, measured %.1f%% — %s",
			d.Workload, d.Ledger, strings.Join(d.Layers, "+"), 100*predicted, verdict))
	}
	return out
}

func boolInt(b bool) int {
	if b {
		return 1
	}
	return 0
}
