// Command qfe-sim generates scenario corpora and runs large-scale session
// simulations over them.
//
//	qfe-sim generate -out corpus.jsonl -n 100 -seed 1 [-curated] [ranges...]
//	qfe-sim run -corpus corpus.jsonl -policy target -workers 0 \
//	    -report BENCH_sim.json [-server URL] [-require-converge 0.95]
//
// generate produces a seeded, deterministic corpus (internal/scenario):
// random FK-connected schemas, populated databases, target queries sampled
// from the SPJ+DISTINCT/DNF grammar with guaranteed non-trivial results.
// -curated appends the repository's hand-built datasets (scientific Q1–Q2,
// baseball Q3–Q6, adult U1–U3) so curated and generated scenarios mix in
// one run.
//
// run drives a full QFE session per scenario at the given concurrency
// (internal/simulate), in-process or against a qfe-server, with automated
// feedback (target, worst, noisy, abandon), per-session invariant checks
// and a metamorphic differential oracle on fresh databases. The JSON report
// (convergence rate, rounds histogram, latency percentiles, peak sessions)
// is deterministic modulo its timing block. The exit status
// is non-zero when invariants are violated or the convergence rate falls
// below -require-converge — which is what makes `make sim-smoke` a CI gate.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strconv"
	"strings"
	"time"

	"qfe/internal/fault"
	"qfe/internal/obs"
	"qfe/internal/scenario"
	"qfe/internal/simulate"
)

// logFormatFlag registers the shared -log-format flag on a subcommand's
// FlagSet; the returned setup func installs the slog default (stderr, so
// stdout stays parseable report output).
func logFormatFlag(fs *flag.FlagSet) func() error {
	format := fs.String("log-format", "text", "structured log format: text or json")
	return func() error {
		lf, err := obs.ParseLogFormat(*format)
		if err != nil {
			return err
		}
		obs.SetupLogger(lf, os.Stderr)
		return nil
	}
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "generate":
		err = runGenerate(os.Args[2:])
	case "run":
		err = runRun(os.Args[2:])
	case "chaos":
		err = runChaos(os.Args[2:])
	case "-h", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "qfe-sim: unknown command %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		slog.Error("qfe-sim failed", "command", os.Args[1], "err", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage:
  qfe-sim generate -out FILE -n N -seed S [-curated] [-tables MIN:MAX]
          [-cols MIN:MAX] [-rows MIN:MAX] [-domain MIN:MAX] [-skew F]
          [-distinct P] [-max-result N]
  qfe-sim run -corpus FILE [-policy target|worst|noisy|abandon]
          [-workers N] [-fresh N] [-max-candidates N] [-report FILE]
          [-server URL] [-noise P] [-abandon N] [-no-inject]
          [-require-converge RATE] [-allow-violations]
  qfe-sim chaos -corpus FILE -server-bin PATH [-sessions N] [-workers N]
          [-kills N] [-seed S] [-wal-sync POLICY] [-checkpoint D]
          [-max-candidates N] [-report FILE] [-quiet]
          [-cluster N -router-bin PATH]`)
}

// rangeFlag parses "min:max" (or a single value) into a MinMax.
type rangeFlag struct{ mm *scenario.MinMax }

func (f rangeFlag) String() string {
	if f.mm == nil {
		return ""
	}
	return fmt.Sprintf("%d:%d", f.mm.Min, f.mm.Max)
}

func (f rangeFlag) Set(s string) error {
	lo, hi, found := strings.Cut(s, ":")
	a, err := strconv.Atoi(strings.TrimSpace(lo))
	if err != nil {
		return fmt.Errorf("bad range %q", s)
	}
	b := a
	if found {
		b, err = strconv.Atoi(strings.TrimSpace(hi))
		if err != nil {
			return fmt.Errorf("bad range %q", s)
		}
	}
	if b < a {
		return fmt.Errorf("range %q: max below min", s)
	}
	f.mm.Min, f.mm.Max = a, b
	return nil
}

func runGenerate(args []string) error {
	fs := flag.NewFlagSet("generate", flag.ExitOnError)
	out := fs.String("out", "corpus.jsonl", "output corpus file")
	n := fs.Int("n", 100, "number of generated scenarios")
	seed := fs.Int64("seed", 1, "corpus seed")
	curated := fs.Bool("curated", false, "append the curated dataset scenarios")
	opts := scenario.DefaultGenOptions()
	fs.Var(rangeFlag{&opts.Tables}, "tables", "tables per scenario (min:max)")
	fs.Var(rangeFlag{&opts.PayloadCols}, "cols", "payload columns per table (min:max)")
	fs.Var(rangeFlag{&opts.Rows}, "rows", "rows per table (min:max)")
	fs.Var(rangeFlag{&opts.DomainSize}, "domain", "active-domain size per column (min:max)")
	fs.Float64Var(&opts.Skew, "skew", opts.Skew, "value/FK skew exponent (1 = uniform)")
	fs.Float64Var(&opts.Query.DistinctProb, "distinct", opts.Query.DistinctProb, "P(SELECT DISTINCT)")
	fs.IntVar(&opts.Query.MaxResultRows, "max-result", opts.Query.MaxResultRows, "reject results larger than this (0 = unlimited)")
	setupLog := logFormatFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := setupLog(); err != nil {
		return err
	}

	corpus, err := scenario.GenerateCorpus(*seed, *n, opts)
	if err != nil {
		return err
	}
	if *curated {
		cs, err := scenario.Curated()
		if err != nil {
			return err
		}
		corpus = append(corpus, cs...)
	}
	f, err := os.Create(*out)
	if err != nil {
		return err
	}
	defer f.Close()
	hdr := scenario.Header{Seed: *seed, Gen: &opts}
	if err := scenario.Write(f, hdr, corpus); err != nil {
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("wrote %d scenarios (%d generated, seed %d) to %s\n",
		len(corpus), *n, *seed, *out)
	return nil
}

func runRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	corpusPath := fs.String("corpus", "corpus.jsonl", "corpus file to simulate")
	policy := fs.String("policy", "target", "feedback policy: target, worst, noisy, abandon")
	workers := fs.Int("workers", 0, "concurrent sessions (0 = NumCPU, 1 = serial)")
	fresh := fs.Int("fresh", 2, "fresh databases per generated scenario for the differential oracle")
	maxCand := fs.Int("max-candidates", 16, "candidate-set size cap per scenario")
	reportPath := fs.String("report", "BENCH_sim.json", "JSON report output file")
	server := fs.String("server", "", "drive sessions over HTTP against this qfe-server (empty = in-process)")
	noise := fs.Float64("noise", 0.1, "noisy policy: wrong-answer probability")
	abandon := fs.Int("abandon", 2, "abandon policy: rounds answered before walking away")
	noInject := fs.Bool("no-inject", false, "do not inject the target into the candidate set")
	requireConverge := fs.Float64("require-converge", 0, "exit non-zero when convergence rate falls below this")
	allowViolations := fs.Bool("allow-violations", false, "exit zero even when invariants are violated")
	setupLog := logFormatFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := setupLog(); err != nil {
		return err
	}

	f, err := os.Open(*corpusPath)
	if err != nil {
		return err
	}
	rd, err := scenario.NewReader(f)
	if err != nil {
		f.Close()
		return err
	}
	var corpus []*scenario.Scenario
	for {
		s, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			f.Close()
			return err
		}
		if err := s.Verify(); err != nil {
			f.Close()
			return err
		}
		corpus = append(corpus, s)
	}
	f.Close()
	if len(corpus) == 0 {
		return fmt.Errorf("corpus %s is empty", *corpusPath)
	}

	pol, err := simulate.ParsePolicy(*policy)
	if err != nil {
		return err
	}
	runner, err := simulate.New(simulate.Options{
		Workers:        *workers,
		Policy:         pol,
		NoiseRate:      *noise,
		AbandonAfter:   *abandon,
		FreshDBs:       *fresh,
		MaxCandidates:  *maxCand,
		NoInjectTarget: *noInject,
		Server:         *server,
	})
	if err != nil {
		return err
	}
	rep, err := runner.Run(corpus)
	if err != nil {
		return err
	}
	rep.Corpus = *corpusPath

	out, err := os.Create(*reportPath)
	if err != nil {
		return err
	}
	if err := rep.WriteJSON(out); err != nil {
		out.Close()
		return err
	}
	if err := out.Close(); err != nil {
		return err
	}

	fmt.Printf("%d scenarios, policy %s, %d workers%s\n",
		rep.Scenarios, rep.Policy, rep.Workers, serverNote(rep.Server))
	fmt.Printf("converged %d (%.1f%%): %d identified, %d ambiguous; %d not found, %d abandoned, %d errors\n",
		rep.Converged, rep.ConvergenceRate*100, rep.Identified, rep.Ambiguous,
		rep.NotFound, rep.Abandoned, rep.Errors)
	fmt.Printf("rounds %d total; invariant violations %d; divergent class members %d\n",
		rep.TotalRounds, rep.InvariantViolations, rep.Divergent)
	fmt.Printf("latency p50/p90/p99/max = %.2f/%.2f/%.2f/%.2f ms; peak sessions %d\n",
		rep.Timing.RoundLatency.P50, rep.Timing.RoundLatency.P90,
		rep.Timing.RoundLatency.P99, rep.Timing.RoundLatency.Max,
		rep.Timing.PeakSessions)
	fmt.Printf("report written to %s\n", *reportPath)

	if rep.InvariantViolations > 0 && !*allowViolations {
		return fmt.Errorf("%d invariant violations", rep.InvariantViolations)
	}
	if *requireConverge > 0 && rep.ConvergenceRate < *requireConverge {
		return fmt.Errorf("convergence rate %.4f below required %.4f",
			rep.ConvergenceRate, *requireConverge)
	}
	return nil
}

// runChaos drives the crash-recovery harness. Single-node mode (default):
// a qfe-server subprocess with a WAL is SIGKILLed and restarted under load.
// Cluster mode (-cluster N with -router-bin): N workers behind a qfe-router
// are driven while random workers are SIGKILLed for good — the router must
// fail over their sessions to the survivors. Either way the run fails when
// any acknowledged session is lost or any outcome differs from an
// uninterrupted single-node reference run. Doc comments at
// internal/simulate/chaos.go and internal/simulate/cluster.go.
func runChaos(args []string) error {
	fs := flag.NewFlagSet("chaos", flag.ExitOnError)
	corpusPath := fs.String("corpus", "corpus.jsonl", "corpus file to drive sessions from")
	serverBin := fs.String("server-bin", "", "path to a built qfe-server binary (required)")
	sessions := fs.Int("sessions", 50, "sessions to drive (cycling the corpus)")
	workers := fs.Int("workers", 8, "concurrent client sessions")
	kills := fs.Int("kills", 5, "SIGKILL cycles to inject (progress-triggered; restart+recover in single-node mode, permanent death in cluster mode)")
	seed := fs.Int64("seed", 1, "kill-point seed")
	walSync := fs.String("wal-sync", "off", "server -wal-sync policy (always, interval, off)")
	checkpoint := fs.Duration("checkpoint", 500*time.Millisecond, "server -checkpoint cadence")
	maxCand := fs.Int("max-candidates", 16, "candidate-set size cap per session")
	cluster := fs.Int("cluster", 0, "run against an N-worker cluster behind qfe-router (0 = single node)")
	routerBin := fs.String("router-bin", "", "path to a built qfe-router binary (required with -cluster)")
	faultSpec := fs.String("fault-schedule", "", "inject scripted faults during the chaos pass: schedule JSON file or seed:N (single-node mode)")
	reportPath := fs.String("report", "", "JSON report output file (default BENCH_chaos.json, or BENCH_cluster.json with -cluster)")
	quiet := fs.Bool("quiet", false, "suppress per-kill progress lines")
	setupLog := logFormatFlag(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if err := setupLog(); err != nil {
		return err
	}
	if *serverBin == "" {
		return fmt.Errorf("chaos: -server-bin is required")
	}
	if *cluster > 0 && *routerBin == "" {
		return fmt.Errorf("chaos: -cluster needs -router-bin")
	}
	if *reportPath == "" {
		if *cluster > 0 {
			*reportPath = "BENCH_cluster.json"
		} else {
			*reportPath = "BENCH_chaos.json"
		}
	}

	f, err := os.Open(*corpusPath)
	if err != nil {
		return err
	}
	rd, err := scenario.NewReader(f)
	if err != nil {
		f.Close()
		return err
	}
	var corpus []*scenario.Scenario
	for {
		s, err := rd.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			f.Close()
			return err
		}
		corpus = append(corpus, s)
	}
	f.Close()
	if len(corpus) == 0 {
		return fmt.Errorf("corpus %s is empty", *corpusPath)
	}

	log := io.Writer(os.Stderr)
	if *quiet {
		log = io.Discard
	}
	chaosOpts := simulate.ChaosOptions{
		ServerBin:     *serverBin,
		Corpus:        corpus,
		Sessions:      *sessions,
		Workers:       *workers,
		Kills:         *kills,
		Seed:          *seed,
		SyncPolicy:    *walSync,
		Checkpoint:    *checkpoint,
		MaxCandidates: *maxCand,
		Log:           log,
	}
	if *faultSpec != "" {
		if *cluster > 0 {
			return fmt.Errorf("chaos: -fault-schedule is single-node only (cluster workers each need their own schedule)")
		}
		sched, err := fault.Load(*faultSpec)
		if err != nil {
			return fmt.Errorf("chaos: %w", err)
		}
		chaosOpts.Faults = sched
	}
	if *cluster > 0 {
		return runClusterChaos(simulate.ClusterChaosOptions{
			ChaosOptions: chaosOpts,
			RouterBin:    *routerBin,
			Nodes:        *cluster,
		}, *reportPath)
	}
	rep, err := simulate.RunChaos(chaosOpts)
	if err != nil {
		return err
	}
	rep.FaultSpec = *faultSpec

	out, err := os.Create(*reportPath)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		out.Close()
		return err
	}
	if err := out.Close(); err != nil {
		return err
	}

	fmt.Printf("%d sessions, %d workers, %d kill(s) -> %d restart(s)\n",
		rep.Sessions, rep.Workers, rep.Kills, rep.Restarts)
	fmt.Printf("completed %d, lost %d, mismatched %d, errors %d, skipped %d; %d HTTP retries\n",
		rep.Completed, rep.Lost, rep.Mismatched, rep.Errors, rep.Skipped, rep.HTTPRetries)
	fmt.Printf("recovered %d from snapshots + %d via replay (%d WAL records); recovery max %s, total %s\n",
		rep.SessionsRestored, rep.SessionsReplayed, rep.WALRecordsReplayed,
		time.Duration(rep.RecoveryMaxNs), time.Duration(rep.RecoveryTotalNs))
	if chaosOpts.Faults != nil {
		fmt.Printf("faults: %d WAL append error(s) injected; degraded mode entered %d time(s), recovered %d time(s)\n",
			rep.WALAppendErrors, rep.DegradedEntered, rep.DegradedRecovered)
	}
	fmt.Printf("report written to %s\n", *reportPath)

	if rep.Lost > 0 {
		return fmt.Errorf("%d acknowledged session(s) lost to a crash", rep.Lost)
	}
	if rep.Mismatched > 0 {
		return fmt.Errorf("%d session outcome(s) differ from the uninterrupted reference run", rep.Mismatched)
	}
	if rep.Errors > 0 {
		return fmt.Errorf("%d session(s) failed", rep.Errors)
	}
	// Vacuity gates: a faulted run must actually have exercised the fault
	// plane, or the zero-loss result proves nothing.
	if chaosOpts.Faults.HasStorage() && rep.WALAppendErrors == 0 {
		return fmt.Errorf("fault schedule scripted storage faults but no WAL append error was observed")
	}
	if chaosOpts.Faults.HasStorageKind(fault.KindENOSPC) {
		if rep.DegradedEntered == 0 {
			return fmt.Errorf("fault schedule scripted an ENOSPC window but the server never entered degraded mode")
		}
		if rep.DegradedRecovered == 0 {
			return fmt.Errorf("server entered degraded mode but never auto-recovered")
		}
	}
	return nil
}

// runClusterChaos executes the cluster-mode harness and gates on its
// report: zero lost acknowledged sessions, zero outcome mismatches, zero
// errors — with real worker deaths in between.
func runClusterChaos(opts simulate.ClusterChaosOptions, reportPath string) error {
	rep, err := simulate.RunClusterChaos(opts)
	if err != nil {
		return err
	}
	out, err := os.Create(reportPath)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(out)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		out.Close()
		return err
	}
	if err := out.Close(); err != nil {
		return err
	}

	fmt.Printf("%d sessions, %d client workers, %d-node cluster, %d/%d worker kill(s) landed -> %d failover(s)\n",
		rep.Sessions, rep.Workers, rep.Nodes, rep.KillsLanded, rep.Kills, rep.Failovers)
	fmt.Printf("completed %d, lost %d, mismatched %d, errors %d, skipped %d\n",
		rep.Completed, rep.Lost, rep.Mismatched, rep.Errors, rep.Skipped)
	fmt.Printf("client retries %d; router retries %d, shed %d; adoptions %d (%d failed)\n",
		rep.HTTPRetries, rep.RouterRetries, rep.Shed, rep.AdoptCalls, rep.AdoptErrors)
	fmt.Printf("report written to %s\n", reportPath)

	if rep.KillsLanded < rep.Kills {
		return fmt.Errorf("only %d of %d worker kill(s) landed mid-run — the gate did not exercise failover", rep.KillsLanded, rep.Kills)
	}
	if rep.Lost > 0 {
		return fmt.Errorf("%d acknowledged session(s) lost to a worker death", rep.Lost)
	}
	if rep.Mismatched > 0 {
		return fmt.Errorf("%d session outcome(s) differ from the single-node reference run", rep.Mismatched)
	}
	if rep.Errors > 0 {
		return fmt.Errorf("%d session(s) failed", rep.Errors)
	}
	return nil
}

func serverNote(s string) string {
	if s == "" {
		return " (in-process)"
	}
	return " (server " + s + ")"
}
