package main

import (
	"bufio"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"time"

	"qfe/internal/algebra"
	"qfe/internal/core"
	"qfe/internal/datasets"
	"qfe/internal/db"
	"qfe/internal/dbgen"
	"qfe/internal/feedback"
	"qfe/internal/obs"
	"qfe/internal/qbo"
	"qfe/internal/scenario"
)

const (
	// setupReps is how many times a run builds its inputs; setup_s is the
	// median of those builds (plus, on service, the one start of the
	// processes). One build takes 0.1–0.3 s, too little for a single reading
	// to be steady on a shared VM.
	setupReps = 7

	// winnowPerSecond sizes winnow's input list: sessions per second of
	// --seconds at the rate measured on a 2-vCPU VM (≈35 sessions/s), so one
	// pass over the list fills about the requested run length.
	winnowPerSecond = 33
	// winnowCorpusSeed fixes winnow's scenarios. Every seed runs the same
	// list, in a seed-drawn order: per-session cost is heavy-tailed (CV ≈ 1.8;
	// in a probe of 300 sessions, ten took 28% of the time), so a list drawn
	// per seed would move sessions_per_s by ~14% between seeds for input
	// reasons alone.
	winnowCorpusSeed = 1

	// paperSecondsPerPass sizes paper's run: one pass over the nine
	// instances per paperSecondsPerPass of --seconds. A pass takes 12–16 s
	// on a 2-vCPU VM, baseball/Q4's candidate generation alone 8–12 s.
	paperSecondsPerPass = 15
)

// engineConfig is qfe-server's engine configuration under -wal: all cores
// (Parallelism 0) and the deterministic pair budget instead of the
// wall-clock δ, so every outcome is a function of the inputs alone.
func engineConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.Gen.Budget = dbgen.Budget{MaxPairs: 100000}
	cfg.Parallelism = 0
	return cfg
}

// qboConfig is qfe-server's candidate generation: its default cap of 32.
func qboConfig() qbo.Config {
	cfg := qbo.DefaultConfig()
	cfg.MaxCandidates = 32
	return cfg
}

// sessionRun is one in-process session: its outcome and the time of each
// call the benchmark made.
type sessionRun struct {
	out         outcome
	firstMs     float64   // qbo.Generate + core.NewStepSession + Start
	qboMs       float64   // qbo.Generate
	coreMs      float64   // Start + every Feedback
	roundMs     []float64 // feedbacks answered with a next D′
	feedbacks   int
	oracleMs    float64 // simulated user (not program work)
	gateMs      float64 // correctness checks (not program work)
	candidates  int     // qbo's candidates, before injection
	targetFound bool    // qbo found the target itself
	errOps      int     // calls that returned an error
	violations  []string
}

// inproc drives sessions in this process, one at a time.
type inproc struct {
	cfg    core.Config
	qcfg   qbo.Config
	tr     *tracer
	oracle func(instance) feedback.Oracle
}

func newInproc(tr *tracer) *inproc {
	return &inproc{cfg: engineConfig(), qcfg: qboConfig(), tr: tr,
		oracle: func(in instance) feedback.Oracle { return feedback.Target{Query: in.Target} }}
}

// phaseSeries names the obs histograms of the engine's round phases, keyed
// by the span attribute they become.
var phaseSeries = [][2]string{
	{"round", "qfe_engine_round_seconds"},
	{"batch_eval", "qfe_engine_batch_eval_seconds"},
	{"skyline", "qfe_engine_skyline_seconds"},
	{"alg4", "qfe_engine_alg4_seconds"},
	{"alg4_enumerate", "qfe_engine_alg4_enumerate_seconds"},
	{"alg4_score", "qfe_engine_alg4_score_seconds"},
	{"alg4_topk", "qfe_engine_alg4_topk_seconds"},
	{"concretize", "qfe_engine_concretize_seconds"},
}

// phaseMs turns engine-phase histogram deltas into milliseconds per phase.
func phaseMs(d obsDelta) map[string]float64 {
	out := make(map[string]float64, len(phaseSeries))
	for _, s := range phaseSeries {
		out[s[0]] = d.hist(s[1]).Sum * 1e3
	}
	return out
}

func obsSnapshot() snapshot { return indexSnapshot(obs.Default().Snapshot()) }

// call times one call into the program. Traced, it records a span and, for
// engine calls, the engine-phase deltas the call caused; the snapshots are
// outside the timed interval and charged to the tracer's overhead.
func (ip *inproc) call(name string, parent, sid int, engine bool, f func() error) (float64, int, error) {
	var before snapshot
	if ip.tr.on && engine {
		c := time.Now()
		before = obsSnapshot()
		ip.tr.charge(time.Since(c))
	}
	start := time.Now()
	err := f()
	end := time.Now()
	id := ip.tr.record(name, parent, sid, start, end)
	if ip.tr.on && engine {
		c := time.Now()
		ip.tr.setAttrs(id, phaseMs(obsDelta{{before, obsSnapshot()}}))
		ip.tr.charge(time.Since(c))
	}
	return float64(end.Sub(start).Nanoseconds()) / 1e6, id, err
}

// work times benchmark-side work (the simulated user, the gate) so it can
// be excluded from the program's time.
func (ip *inproc) work(name string, parent, sid int, f func()) float64 {
	start := time.Now()
	f()
	end := time.Now()
	ip.tr.record(name, parent, sid, start, end)
	return float64(end.Sub(start).Nanoseconds()) / 1e6
}

// session runs one instance to its outcome under the oracle, injecting the
// target into the candidates when qbo missed it (as internal/simulate
// does), and checks every round and the outcome.
func (ip *inproc) session(sid int, in instance) sessionRun {
	var res sessionRun
	res.out.Name = in.Name
	root := ip.tr.begin("session", -1, sid)
	defer ip.tr.end(root)
	fail := func(format string, a ...any) sessionRun {
		res.errOps++
		res.violations = append(res.violations, in.Name+": "+fmt.Sprintf(format, a...))
		return res
	}

	var qc []*algebra.Query
	qboMs, _, err := ip.call("qbo", root, sid, false, func() error {
		var err error
		qc, err = qbo.Generate(in.DB, in.R, ip.qcfg)
		return err
	})
	if err != nil {
		return fail("qbo: %v", err)
	}
	res.candidates = len(qc)
	for _, q := range qc {
		res.targetFound = res.targetFound || q.Key() == in.Target.Key()
	}
	if !res.targetFound {
		t := in.Target.Clone()
		t.Name = "target"
		qc = append(qc, t)
	}

	var sess *core.Session
	newMs, _, err := ip.call("core.new", root, sid, false, func() error {
		var err error
		sess, err = core.NewStepSession(in.DB, in.R, qc, ip.cfg)
		return err
	})
	if err != nil {
		return fail("core.NewStepSession: %v", err)
	}
	var round *core.Round
	startMs, _, err := ip.call("core.start", root, sid, true, func() error {
		var err error
		round, err = sess.Start()
		return err
	})
	if err != nil {
		return fail("Start: %v", err)
	}
	res.firstMs = qboMs + newMs + startMs
	res.qboMs, res.coreMs = qboMs, startMs

	oracle := ip.oracle(in)
	for round != nil {
		res.out.Rounds++
		res.gateMs += ip.work("gate", root, sid, func() {
			res.violations = append(res.violations, checkRound(in, round)...)
		})
		var choice int
		var ok bool
		res.oracleMs += ip.work("client.oracle", root, sid, func() {
			choice, ok, err = oracle.Choose(round.View)
		})
		if err != nil {
			return fail("oracle: %v", err)
		}
		if !ok {
			choice = core.NoneOfThese
		}
		var next *core.Round
		ms, id, err := ip.call("core.round", root, sid, true, func() error {
			var err error
			next, _, err = sess.Feedback(choice)
			return err
		})
		res.feedbacks++
		res.coreMs += ms
		if err != nil {
			return fail("Feedback: %v", err)
		}
		if next != nil {
			res.roundMs = append(res.roundMs, ms)
		} else {
			ip.tr.rename(id, "core.final")
		}
		round = next
	}
	out, done := sess.Outcome()
	if !done {
		return fail("session stopped without an outcome: %v", sess.Err())
	}
	res.out.ModCost = out.TotalModCost
	res.out.Found = out.Found
	res.out.Ambiguous = out.Ambiguous
	if out.Query != nil {
		res.out.Identified = out.Query.Key()
	}
	res.gateMs += ip.work("gate", root, sid, func() {
		res.violations = append(res.violations, checkOutcome(in, out)...)
	})
	return res
}

// runtimeSample reads the benchmark process's allocation and CPU counters.
type runtimeSample struct{ allocBytes, gcCPU, totalCPU float64 }

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		switch v.Kind() {
		case metrics.KindUint64:
			return float64(v.Uint64())
		case metrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return runtimeSample{val(s[0].Value), val(s[1].Value), val(s[2].Value)}
}

// peakRSSMB is a process's peak resident set (VmHWM) in MB, read from
// /proc/<pid>/status; 0 where that file does not exist.
func peakRSSMB(pid string) float64 {
	f, err := os.Open("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err == nil {
				return kb / 1024
			}
		}
	}
	return 0
}

// phaseResult is the timed phase of an in-process workload.
type phaseResult struct {
	runs          []sessionRun
	wall          time.Duration
	rt0, rt1      runtimeSample
	before, after snapshot
}

func (ph phaseResult) outcomes() []outcome {
	out := make([]outcome, len(ph.runs))
	for i, r := range ph.runs {
		out[i] = r.out
	}
	return out
}

// runPhase runs every pass over the inputs in the given order.
func (ip *inproc) runPhase(inputs []instance, order []int, passes int) phaseResult {
	var ph phaseResult
	ph.before = obsSnapshot()
	ph.rt0 = readRuntime()
	t0 := time.Now()
	for p := 0; p < passes; p++ {
		for _, i := range order {
			r := ip.session(len(ph.runs), inputs[i])
			r.out.Input, r.out.Pass = i, p
			ph.runs = append(ph.runs, r)
		}
	}
	ph.wall = time.Since(t0)
	ph.rt1 = readRuntime()
	ph.after = obsSnapshot()
	return ph
}

// repeatSetup builds a workload's inputs setupReps times and returns the
// last build with every build's duration in seconds. Each build starts from
// a collected heap holding no earlier build, so the builds differ only by
// the machine's noise. No warm-up sessions run: their cost varies with the
// machine more than input generation does, and first-call costs are
// negligible against a timed phase of thousands of calls.
func repeatSetup[T any](build func() (T, error)) (T, []float64, error) {
	var inputs, zero T
	secs := make([]float64, setupReps)
	for i := range secs {
		inputs = zero // drop the previous build before collecting
		runtime.GC()
		t0 := time.Now()
		var err error
		if inputs, err = build(); err != nil {
			return zero, nil, err
		}
		secs[i] = time.Since(t0).Seconds()
	}
	return inputs, secs, nil
}

// setupLine is the setup_s metric: the median build plus the time to start
// the program's processes (0 in process), with every build in the note.
func setupLine(builds []float64, startS float64, what string) metricLine {
	reps := make([]string, len(builds))
	for i, b := range builds {
		reps[i] = strconv.FormatFloat(b, 'f', 3, 64)
	}
	return metricLine{Name: "setup_s", Value: median(builds) + startS, Unit: "s", N: len(builds),
		Note: fmt.Sprintf("median of %d input builds (%s s)%s", len(builds), strings.Join(reps, " "), what)}
}

// startTimedPhase returns the set-up's garbage to the OS and restarts the
// process's peak-RSS count, so peak_rss_mb reflects the timed phase (with
// the inputs it holds), not the repeated set-ups.
func startTimedPhase() {
	runtime.GC()
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // best effort: without it the peak includes set-up
}

func runWinnow(o options) (*report, error) {
	n := winnowPerSecond * o.seconds
	ip := newInproc(newTracer(o.trace))
	inputs, setups, err := repeatSetup(func() ([]instance, error) {
		scs, err := scenario.GenerateCorpus(winnowCorpusSeed, n, scenario.DefaultGenOptions())
		if err != nil {
			return nil, err
		}
		out := make([]instance, len(scs))
		for i, sc := range scs {
			out[i] = instanceOf(sc)
		}
		return out, nil
	})
	if err != nil {
		return nil, err
	}
	order := rand.New(rand.NewSource(o.seed)).Perm(n)
	startTimedPhase()
	ph := ip.runPhase(inputs, order, 1)
	rep := inprocReport("winnow", setups, ph, ip.tr)
	rep.Design = []string{
		"closed loop, 1 client, in process; engine at qfe-server settings (Parallelism 0, qbo cap 32, Budget{MaxPairs: 100000})",
		fmt.Sprintf("inputs: %d distinct scenarios (scenario.DefaultGenOptions, corpus seed %d), one pass in seed-%d order; target injected when qbo misses it",
			n, winnowCorpusSeed, o.seed),
	}
	return rep, nil
}

// paperInstances builds the paper's nine instances and their results R.
func paperInstances() ([]instance, error) {
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
	out := make([]instance, len(list))
	for i, l := range list {
		r, err := l.q.Evaluate(l.d)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", l.name, err)
		}
		out[i] = instance{Name: l.name, DB: l.d, R: r, Target: l.q}
	}
	return out, nil
}

func runPaper(o options) (*report, error) {
	passes := max(1, o.seconds/paperSecondsPerPass)
	ip := newInproc(newTracer(o.trace))
	inputs, setups, err := repeatSetup(paperInstances)
	if err != nil {
		return nil, err
	}
	order := rand.New(rand.NewSource(o.seed)).Perm(len(inputs))
	startTimedPhase()
	ph := ip.runPhase(inputs, order, passes)
	rep := inprocReport("paper", setups, ph, ip.tr)
	rep.Design = []string{
		"closed loop, 1 client, in process; engine at qfe-server settings (Parallelism 0, qbo cap 32, Budget{MaxPairs: 100000})",
		fmt.Sprintf("inputs: the paper's 9 instances, %d whole passes in one seed-%d order; qbo once per session; evalcache.Default warm after the first pass",
			passes, o.seed),
	}
	// Every pass repeats the same sessions: their outcomes must agree.
	first := make(map[int]outcome)
	for _, r := range ph.runs {
		o1, seen := first[r.out.Input]
		if !seen {
			first[r.out.Input] = r.out
			continue
		}
		o2 := r.out
		o2.Pass = o1.Pass
		if o1.line() != o2.line() {
			rep.violate(fmt.Sprintf("%s: pass %d outcome differs from pass %d", r.out.Name, r.out.Pass, o1.Pass))
		}
	}
	return rep, nil
}

// inprocReport turns a timed phase into the workload's metrics.
func inprocReport(name string, setups []float64, ph phaseResult, tr *tracer) *report {
	rep := &report{Workload: name, tr: tr}
	var first, rounds []float64
	var oracleMs, gateMs float64
	sessions, feedbacks, errOps, roundsAnswered, modcost, identified := 0, 0, 0, 0, 0, 0
	for _, r := range ph.runs {
		sessions++
		rep.Violations = append(rep.Violations, r.violations...)
		errOps += r.errOps
		feedbacks += r.feedbacks
		oracleMs += r.oracleMs
		gateMs += r.gateMs
		if r.errOps > 0 {
			continue
		}
		first = append(first, r.firstMs)
		rounds = append(rounds, r.roundMs...)
		roundsAnswered += r.out.Rounds
		modcost += r.out.ModCost
		if r.out.Identified != "" {
			identified++
		}
	}
	rep.Sessions = sessions
	rep.Attempted = sessions + feedbacks
	rep.Failed = errOps
	rep.Digest = digest(ph.outcomes())

	// The timed phase excludes the benchmark's own work: the simulated
	// user, the gate and tracing bookkeeping.
	programS := ph.wall.Seconds() - (oracleMs+gateMs)/1e3 - tr.overhead.Seconds()
	tailsAndCommon(rep, setupLine(setups, 0, ""), sessions, programS, first, rounds)
	rep.add(metricLine{Name: "rounds_per_session", Value: ratio(float64(roundsAnswered), float64(sessions)), Unit: "count", N: sessions})
	rep.add(metricLine{Name: "modcost_per_session", Value: ratio(float64(modcost), float64(sessions)), Unit: "count", N: sessions})
	rep.add(metricLine{Name: "identified_frac", Value: ratio(float64(identified), float64(sessions)), Unit: "fraction", N: sessions})
	rep.add(metricLine{Name: "failed_frac", Value: ratio(float64(errOps), float64(rep.Attempted)), Unit: "fraction", N: rep.Attempted})
	rep.add(metricLine{Name: "read_p50_ms", Skip: true, Note: "no reads: in process there is no GET"})
	rep.add(metricLine{Name: "peak_rss_mb", Value: peakRSSMB("self"), Unit: "MB", N: 1,
		Note: "benchmark process, which runs the program, during the timed phase"})

	inprocLayers(rep, ph, tr, sessions, roundsAnswered, oracleMs)
	return rep
}

// tailsAndCommon adds the timing metrics every workload reports the same way.
func tailsAndCommon(rep *report, setup metricLine, sessions int, timedS float64, first, rounds []float64) {
	rep.add(setup)
	rep.add(metricLine{Name: "sessions_per_s", Value: ratio(float64(sessions), timedS), Unit: "1/s", N: sessions})
	for _, m := range []struct {
		name string
		xs   []float64
		p    int
	}{
		{"first_round_p50_ms", first, 50}, {"first_round_p90_ms", first, 90},
		{"round_p50_ms", rounds, 50}, {"round_p90_ms", rounds, 90},
	} {
		v, ok := percentile(m.xs, m.p)
		line := metricLine{Name: m.name, Value: v, Unit: "ms", N: len(m.xs)}
		if m.p != 50 && !ok {
			line.Skip = true
			line.Note = fmt.Sprintf("%d samples; a p%d needs %d beyond it", len(m.xs), m.p, minBeyond)
		}
		rep.add(line)
	}
	rep.add(metricLine{Name: "first_round_mean_ms", Value: ratio(sum(first), float64(len(first))), Unit: "ms", N: len(first)})
	rep.add(metricLine{Name: "round_mean_ms", Value: ratio(sum(rounds), float64(len(rounds))), Unit: "ms", N: len(rounds)})
}
