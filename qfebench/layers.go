package main

// obsDelta reads instrument changes summed over processes (one
// before/after snapshot pair per process).
type obsDelta [][2]snapshot

func (d obsDelta) hist(key string) histDelta {
	var h histDelta
	for _, p := range d {
		h = h.add(histogramDelta(p[0], p[1], key))
	}
	return h
}

func (d obsDelta) value(key string) float64 {
	v := 0.0
	for _, p := range d {
		v += valueDelta(p[0], p[1], key)
	}
	return v
}

const mib = 1 << 20

// engineLayers adds the engine's per-layer metrics (core rounds, dbgen,
// algebra, evalcache) from obs deltas, wherever the engine ran. "Per round"
// divides by the rounds the engine produced.
func engineLayers(rep *report, d obsDelta) {
	rg := d.hist("qfe_engine_round_seconds")
	rounds := float64(rg.Count)
	n := int(rg.Count)
	perRound := func(name, series string) {
		rep.layer(metricLine{Name: name, Value: ratio(d.hist(series).Sum*1e3, rounds), Unit: "ms", N: n})
	}
	rep.layer(metricLine{Name: "core.round_ms_per_round", Value: rg.mean() * 1e3, Unit: "ms", N: n})
	cand := d.hist("qfe_engine_candidates")
	rep.layer(metricLine{Name: "dbgen.candidates_per_round", Value: cand.mean(), Unit: "count", N: int(cand.Count),
		Note: "per generator built"})
	perRound("dbgen.alg4_ms_per_round", "qfe_engine_alg4_seconds")
	perRound("dbgen.alg4_enumerate_ms_per_round", "qfe_engine_alg4_enumerate_seconds")
	perRound("dbgen.alg4_score_ms_per_round", "qfe_engine_alg4_score_seconds")
	perRound("dbgen.alg4_topk_ms_per_round", "qfe_engine_alg4_topk_seconds")
	perRound("dbgen.skyline_ms_per_round", "qfe_engine_skyline_seconds")
	pairs := d.hist("qfe_engine_skyline_pairs")
	rep.layer(metricLine{Name: "dbgen.skyline_pairs_per_round", Value: pairs.mean(), Unit: "count", N: int(pairs.Count)})
	perRound("dbgen.concretize_ms_per_round", "qfe_engine_concretize_seconds")
	nosplit := d.value("qfe_engine_nosplit_total")
	calls := nosplit + d.value("qfe_engine_rounds_total")
	rep.layer(metricLine{Name: "dbgen.nosplit_frac", Value: ratio(nosplit, calls), Unit: "fraction", N: int(calls),
		Note: "generator calls ending in ErrNoSplit"})
	perRound("algebra.batch_eval_ms_per_round", "qfe_engine_batch_eval_seconds")
	scans := d.value("qfe_engine_batch_scans_total")
	rep.layer(metricLine{Name: "algebra.queries_per_scan", Value: ratio(d.value("qfe_engine_batch_queries_total"), scans),
		Unit: "count", N: int(scans)})
	hits, misses := d.value("qfe_evalcache_hits_total"), d.value("qfe_evalcache_misses_total")
	rep.layer(metricLine{Name: "evalcache.hit_frac", Value: ratio(hits, hits+misses), Unit: "fraction", N: int(hits + misses)})
	rep.layer(metricLine{Name: "evalcache.evictions", Value: d.value("qfe_evalcache_evictions_total"), Unit: "count", N: 1})
}

// engineRows adds engine time, as the engine's own timers split it, to a
// ledger: algebra is batch evaluation; dbgen's parts are Alg. 3, Alg. 4 and
// concretization; core is the rest of the round timer (join and generator
// set-up). ph holds milliseconds per phaseSeries name. Rounds that end in
// ErrNoSplit observe phases but no round time, so core is never below 0.
// What an engine call spends outside these timers (the session driver:
// group set-up, the tupleclass merge) has no instrument and stays
// unattributed.
func engineRows(l *ledgerAcc, ph map[string]float64) {
	l.add("core", max(0, ph["round"]-namedMs(ph)))
	l.add("dbgen.skyline", ph["skyline"])
	l.add("dbgen.alg4", ph["alg4"])
	l.add("dbgen.concretize", ph["concretize"])
	l.add("algebra", ph["batch_eval"])
}

// namedMs is the engine time the named round phases account for.
func namedMs(ph map[string]float64) float64 {
	return ph["batch_eval"] + ph["skyline"] + ph["alg4"] + ph["concretize"]
}

// engineMs is the engine time engineRows attributes.
func engineMs(ph map[string]float64) float64 { return max(ph["round"], namedMs(ph)) }

// ledgerAcc accumulates one ledger: a measured total and its layer parts,
// in first-seen order.
type ledgerAcc struct {
	name    string
	totalMs float64
	calls   int
	order   []string
	parts   map[string]float64
}

func newLedger(name string, layers ...string) *ledgerAcc {
	l := &ledgerAcc{name: name, parts: make(map[string]float64)}
	for _, layer := range layers {
		l.add(layer, 0)
	}
	return l
}

func (l *ledgerAcc) add(layer string, ms float64) {
	if _, ok := l.parts[layer]; !ok {
		l.order = append(l.order, layer)
	}
	l.parts[layer] += ms
}

func (l *ledgerAcc) merge(o *ledgerAcc) {
	l.totalMs += o.totalMs
	l.calls += o.calls
	for _, layer := range o.order {
		l.add(layer, o.parts[layer])
	}
}

func (l *ledgerAcc) table() ledgerTable {
	ps := make([]part, 0, len(l.order))
	for _, layer := range l.order {
		ps = append(ps, part{Layer: layer, Ms: l.parts[layer]})
	}
	return ledgerTable{Name: l.name, TotalMs: l.totalMs, Calls: l.calls, Parts: ledger(l.totalMs, ps)}
}

// share is a layer group's share of a ledger.
func (t ledgerTable) share(layers ...string) float64 {
	s := 0.0
	for _, p := range t.Parts {
		for _, l := range layers {
			if p.Layer == l {
				s += p.Share
			}
		}
	}
	return s
}

var engineParts = []string{"core", "dbgen.skyline", "dbgen.alg4", "dbgen.concretize", "algebra"}

// addLedgers appends the first-round, round and combined ledgers and the
// JSON share metrics derived from the combined one.
func addLedgers(rep *report, first, round *ledgerAcc) {
	total := newLedger("first_round+round")
	total.merge(first)
	total.merge(round)
	rep.Ledgers = append(rep.Ledgers, first.table(), round.table())
	shareMetrics(rep, total)
}

// shareMetrics appends the combined first-round and round ledger and the
// share metrics of the JSON line drawn from it.
func shareMetrics(rep *report, total *ledgerAcc) {
	t := total.table()
	rep.Ledgers = append(rep.Ledgers, t)
	rep.layer(metricLine{Name: "ledger.engine_share", Value: t.share(engineParts...), Unit: "fraction", N: total.calls,
		Note: "core+dbgen+algebra share of first-round and round time"})
	rep.layer(metricLine{Name: "ledger.unattributed_share", Value: t.share("unattributed"), Unit: "fraction", N: total.calls,
		Note: "first-round and round time no span or engine timer covers"})
}

// bypassed marks layers a workload never executes.
func bypassed(rep *report, why string, names ...string) {
	for _, n := range names {
		rep.layer(metricLine{Name: n, Skip: true, Note: "bypassed: " + why})
	}
}

var serviceTierLayers = []string{
	"service.create_ms_per_call", "service.feedback_ms_per_call", "service.get_ms_per_call",
	"service.self_ms_per_call", "wal.append_ms_per_call", "wal.fsync_ms_per_call",
	"wal.bytes_per_session", "wal.records_per_session", "cluster.proxy_ms_per_call",
	"cluster.self_ms_per_call", "cluster.retries", "cluster.shed", "cluster.worker_skew",
	"codec.response_kb_per_call", "net.client_ms_per_call",
}

// inprocLayers adds the per-layer metrics and, when traced, the ledgers of
// an in-process workload.
func inprocLayers(rep *report, ph phaseResult, tr *tracer, sessions, roundsAnswered int, oracleMs float64) {
	var qboMs, coreMs float64
	candidates, found := 0, 0
	for _, r := range ph.runs {
		qboMs += r.qboMs
		coreMs += r.coreMs
		candidates += r.candidates
		if r.targetFound {
			found++
		}
	}
	d := obsDelta{{ph.before, ph.after}}
	s := float64(sessions)
	rep.layer(metricLine{Name: "qbo.ms_per_session", Value: ratio(qboMs, s), Unit: "ms", N: sessions})
	rep.layer(metricLine{Name: "qbo.candidates_per_session", Value: ratio(float64(candidates), s), Unit: "count", N: sessions})
	rep.layer(metricLine{Name: "qbo.target_found_frac", Value: ratio(float64(found), s), Unit: "fraction", N: sessions,
		Note: "target among qbo's own candidates (it is injected otherwise)"})
	roundS := d.hist("qfe_engine_round_seconds").Sum
	rep.layer(metricLine{Name: "core.self_ms_per_session", Value: ratio(coreMs-roundS*1e3, s), Unit: "ms", N: sessions,
		Note: "Start + Feedback spans minus engine round time"})
	engineLayers(rep, d)
	bypassed(rep, "in process, no HTTP, WAL or router", serviceTierLayers...)
	rep.layer(metricLine{Name: "runtime.alloc_mb_per_session", Value: ratio((ph.rt1.allocBytes-ph.rt0.allocBytes)/mib, s),
		Unit: "MB", N: sessions})
	rep.layer(metricLine{Name: "runtime.gc_cpu_frac", Value: ratio(ph.rt1.gcCPU-ph.rt0.gcCPU, ph.rt1.totalCPU-ph.rt0.totalCPU),
		Unit: "fraction", N: 1})
	rep.layer(metricLine{Name: "client.oracle_ms_per_round", Value: ratio(oracleMs, float64(roundsAnswered)), Unit: "ms",
		N: roundsAnswered, Note: "simulated user, excluded from program time"})
	rep.layer(metricLine{Name: "trace.overhead_frac", Value: ratio(tr.overhead.Seconds(), ph.wall.Seconds()), Unit: "fraction", N: 1,
		Note: "tracer bookkeeping time / timed phase"})
	if !tr.on {
		return
	}
	harnessLayer(rep, tr)
	first := newLedger("first_round", append([]string{"qbo"}, engineParts...)...)
	round := newLedger("round", engineParts...)
	for _, sp := range tr.spans {
		switch sp.Name {
		case "qbo":
			first.totalMs += sp.ms()
			first.add("qbo", sp.ms())
		case "core.new":
			first.totalMs += sp.ms()
			first.add("core", sp.ms())
		case "core.start":
			first.totalMs += sp.ms()
			first.calls++
			engineRows(first, sp.Attrs)
		case "core.round":
			round.totalMs += sp.ms()
			round.calls++
			engineRows(round, sp.Attrs)
		}
	}
	addLedgers(rep, first, round)
	if sessions > 0 && first.calls != sessions {
		rep.note("first-round ledger covers %d of %d sessions", first.calls, sessions)
	}
}

// harnessLayer reports the time inside each traced session that no call
// span covers — the benchmark's own bookkeeping between calls — as the
// self time of the session spans.
func harnessLayer(rep *report, tr *tracer) {
	if !tr.on {
		return
	}
	kids := tr.children()
	total, n := 0.0, 0
	for _, root := range kids[-1] {
		if tr.spans[root].Name == "session" {
			total += tr.selfMs(root, kids)
			n++
		}
	}
	rep.layer(metricLine{Name: "client.harness_ms_per_session", Value: ratio(total, float64(n)), Unit: "ms", N: n,
		Note: "session span self time: benchmark bookkeeping between calls"})
}
