package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"qfe/internal/codec"
	"qfe/internal/core"
	"qfe/internal/feedback"
	"qfe/internal/obs"
	"qfe/internal/relation"
	"qfe/internal/scenario"
	"qfe/internal/service"
)

const (
	// servicePerSecond sizes the closed loop's session list: sessions per
	// second of --seconds at the capacity measured on a 2-vCPU VM (≈50
	// sessions/s with two clients through the router), so the list takes
	// about the requested run length.
	servicePerSecond = 45
	// serviceCorpusSeed fixes service's scenarios (a seed other than
	// winnow's); like winnow, every seed runs the same scenarios, and the
	// seed draws their order.
	serviceCorpusSeed = 3
	// serviceMinRows and serviceMaxRows size the generated tables at 6–12
	// rows, half of winnow's 12–36: service is the workload for the request
	// path, and with winnow's tables single creates ran for up to a second of
	// Alg. 4 on both cores, so every other request's latency depended on
	// which ones it happened to queue behind.
	serviceMinRows, serviceMaxRows = 6, 12
	serviceWorkers                 = 2
	// noCandidates is the documented 400 a create gets when qbo finds no
	// candidate query; every other non-2xx fails the run.
	noCandidates = "no SPJ query produces the given result on this database"
)

// proc is one program process of the topology.
type proc struct {
	name    string
	cmd     *exec.Cmd
	addr    string
	drained chan struct{} // closed once stdout reaches EOF
}

// startProc starts a binary and waits for its "listening on ADDR" stdout
// line — the readiness signal, so set-up time is not quantised by polling.
func startProc(name, bin string, args ...string) (*proc, error) {
	cmd := exec.Command(bin, args...)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting %s: %w", name, err)
	}
	p := &proc{name: name, cmd: cmd, drained: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(p.drained)
		sc := bufio.NewScanner(out)
		sent := false
		for sc.Scan() {
			if _, rest, ok := strings.Cut(sc.Text(), "listening on "); ok && !sent {
				addr <- strings.Fields(rest)[0]
				sent = true
			}
		}
		_, _ = io.Copy(io.Discard, out)
		if !sent {
			close(addr)
		}
	}()
	select {
	case a, ok := <-addr:
		if ok {
			p.addr = a
			return p, nil
		}
		p.stop()
		return nil, fmt.Errorf("%s exited before listening", name)
	case <-time.After(60 * time.Second):
		p.stop()
		return nil, fmt.Errorf("%s did not print its listening line within 60s", name)
	}
}

// stop terminates the process (SIGTERM, then SIGKILL after 10s), waits for
// it, and returns its peak resident set in MB.
func (p *proc) stop() float64 {
	rss := peakRSSMB(strconv.Itoa(p.cmd.Process.Pid))
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.drained:
	case <-time.After(10 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.drained
	}
	_ = p.cmd.Wait()
	return rss
}

// topology is qfe-router in front of serviceWorkers qfe-server -wal workers.
type topology struct {
	dir     string
	workers []*proc
	router  *proc
}

func startTopology(bin, dir string) (*topology, error) {
	t := &topology{dir: dir}
	routerArgs := []string{"-addr", "127.0.0.1:0"}
	for i := 0; i < serviceWorkers; i++ {
		id := fmt.Sprintf("w%d", i)
		w, err := startProc(id, filepath.Join(bin, "qfe-server"),
			"-addr", "127.0.0.1:0", "-wal", filepath.Join(dir, id), "-candidates", "32")
		if err != nil {
			t.stop()
			return nil, err
		}
		t.workers = append(t.workers, w)
		routerArgs = append(routerArgs, "-worker", fmt.Sprintf("id=%s,url=http://%s", id, w.addr))
	}
	r, err := startProc("router", filepath.Join(bin, "qfe-router"), routerArgs...)
	if err != nil {
		t.stop()
		return nil, err
	}
	t.router = r
	return t, nil
}

// stop stops every process (router first), removes the WAL directories and
// returns the summed peak RSS of the processes in MB.
func (t *topology) stop() float64 {
	rss := 0.0
	if t.router != nil {
		rss += t.router.stop()
	}
	for _, w := range t.workers {
		rss += w.stop()
	}
	_ = os.RemoveAll(t.dir)
	return rss
}

// procs lists the processes whose /metrics the ledger reads.
func (t *topology) procs() []*proc { return append([]*proc{t.router}, t.workers...) }

// svcInput is one session's input, its create body encoded during set-up.
type svcInput struct {
	in   instance
	body []byte
}

func serviceInputs(seed int64, n int) ([]svcInput, error) {
	opts := scenario.DefaultGenOptions()
	opts.Rows = scenario.MinMax{Min: serviceMinRows, Max: serviceMaxRows}
	scs, err := scenario.GenerateCorpus(seed, n, opts)
	if err != nil {
		return nil, err
	}
	out := make([]svcInput, len(scs))
	for i, sc := range scs {
		r := codec.EncodeRelation(sc.R)
		d := codec.EncodeDatabase(sc.DB)
		body, err := json.Marshal(service.CreateRequest{Tables: d.Tables, PrimaryKeys: d.PrimaryKeys,
			ForeignKeys: d.ForeignKeys, Result: &r, MaxCandidates: 32})
		if err != nil {
			return nil, err
		}
		out[i] = svcInput{in: instanceOf(sc), body: body}
	}
	return out, nil
}

// userRun is one simulated user's session over HTTP.
type userRun struct {
	out        outcome
	createMs   float64 // every create, refused or not
	firstMs    float64 // a create answered with a session
	created    bool
	candidates int
	roundMs    []float64 // feedbacks answered with a next round
	feedbackMs float64   // every feedback
	readMs     []float64
	oracleMs   float64
	ops        int
	failedOps  int
	respBytes  int
	result     *service.OutcomeJSON
	violations []string
	end        time.Time
}

// client is the load generator's HTTP client: at most nproc connections.
type client struct {
	http *http.Client
	base string
	tr   *tracer
}

func newClient(base string, tr *tracer) *client {
	n := runtime.NumCPU()
	return &client{base: base, tr: tr, http: &http.Client{
		Timeout: 2 * time.Minute,
		Transport: &http.Transport{MaxConnsPerHost: n, MaxIdleConnsPerHost: n,
			IdleConnTimeout: time.Minute, DisableCompression: true},
	}}
}

// do sends one request and reads the whole response. Its latency runs from
// just before the request is sent to the last byte of the response.
func (c *client) do(method, path string, body []byte, span string, parent, sid int) (int, []byte, float64, error) {
	req, err := http.NewRequest(method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, 0, err
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	end := time.Now()
	c.tr.record(span, parent, sid, start, end)
	return resp.StatusCode, data, float64(end.Sub(start).Nanoseconds()) / 1e6, err
}

// user runs one session: a create, then per round one GET and one
// seq-carrying feedback, back to back.
func (c *client) user(sid int, in svcInput) userRun {
	var u userRun
	u.out.Name = in.in.Name
	root := c.tr.begin("session", -1, sid)
	defer c.tr.end(root)
	bad := func(format string, a ...any) userRun {
		u.failedOps++
		u.violations = append(u.violations, in.in.Name+": "+fmt.Sprintf(format, a...))
		u.end = time.Now()
		return u
	}
	u.ops++
	status, data, ms, err := c.do(http.MethodPost, "/sessions", in.body, "create", root, sid)
	u.respBytes += len(data)
	u.createMs = ms
	if err != nil {
		return bad("POST /sessions: %v", err)
	}
	if status == http.StatusBadRequest && strings.Contains(string(data), noCandidates) {
		u.out.Refused = true
		u.end = time.Now()
		return u
	}
	if status != http.StatusCreated {
		return bad("POST /sessions: status %d: %s", status, bytes.TrimSpace(data))
	}
	var st service.SessionJSON
	if err := json.Unmarshal(data, &st); err != nil {
		return bad("POST /sessions: decoding: %v", err)
	}
	u.created, u.firstMs, u.candidates = true, ms, st.Candidates
	seq := 0
	for !st.Done {
		if st.Round == nil {
			return bad("session %s: neither round nor outcome", st.ID)
		}
		if st.Round.Seq != seq+1 {
			u.violations = append(u.violations, fmt.Sprintf("%s: round seq %d after %d", in.in.Name, st.Round.Seq, seq))
		}
		seq = st.Round.Seq
		u.out.Rounds++

		u.ops++
		status, data, ms, err = c.do(http.MethodGet, "/sessions/"+st.ID, nil, "read", root, sid)
		u.respBytes += len(data)
		if err != nil || status != http.StatusOK {
			return bad("GET /sessions/%s: status %d: %v", st.ID, status, err)
		}
		var got service.SessionJSON
		if err := json.Unmarshal(data, &got); err != nil || got.Done || got.Round == nil || got.Round.Seq != seq {
			return bad("GET /sessions/%s: does not show pending round %d (%v)", st.ID, seq, err)
		}
		u.readMs = append(u.readMs, ms)

		start := time.Now()
		choice, err := chooseRound(in.in, st.Round)
		end := time.Now()
		c.tr.record("client.oracle", root, sid, start, end)
		u.oracleMs += float64(end.Sub(start).Nanoseconds()) / 1e6
		if err != nil {
			return bad("oracle: %v", err)
		}

		body, _ := json.Marshal(service.FeedbackRequest{Choice: choice, Seq: seq})
		u.ops++
		status, data, ms, err = c.do(http.MethodPost, "/sessions/"+st.ID+"/feedback", body, "feedback", root, sid)
		u.respBytes += len(data)
		u.feedbackMs += ms
		if err != nil || status != http.StatusOK {
			return bad("POST /sessions/%s/feedback: status %d: %v %s", st.ID, status, err, bytes.TrimSpace(data))
		}
		st = service.SessionJSON{}
		if err := json.Unmarshal(data, &st); err != nil {
			return bad("feedback: decoding: %v", err)
		}
		if !st.Done {
			u.roundMs = append(u.roundMs, ms)
		}
	}
	if st.Outcome == nil {
		return bad("session %s: done without an outcome", st.ID)
	}
	u.result = st.Outcome
	u.out.ModCost = st.Outcome.TotalModCost
	u.out.Found = st.Outcome.Found
	u.out.Ambiguous = st.Outcome.Ambiguous
	if st.Outcome.Rounds != u.out.Rounds {
		u.violations = append(u.violations, fmt.Sprintf("%s: outcome reports %d rounds, %d were presented",
			in.in.Name, st.Outcome.Rounds, u.out.Rounds))
	}
	u.end = time.Now()
	return u
}

// chooseRound answers a wire round as the target oracle: rebuild D′ from the
// round's edits, decode the presented results, pick the target's.
func chooseRound(in instance, round *service.RoundJSON) (int, error) {
	edits, err := codec.DecodeEdits(round.Edits)
	if err != nil {
		return 0, err
	}
	modified, err := in.DB.ApplyEdits(edits)
	if err != nil {
		return 0, err
	}
	results := make([]*relation.Relation, len(round.Results))
	for i, rr := range round.Results {
		if results[i], err = codec.DecodeRelation(rr.Result); err != nil {
			return 0, err
		}
	}
	choice, ok, err := feedback.Target{Query: in.Target}.Choose(feedback.View{NewDB: modified, Results: results})
	if err != nil {
		return 0, err
	}
	if !ok {
		return core.NoneOfThese, nil
	}
	return choice, nil
}

// scrape reads every process's obs registry.
func scrape(t *topology) ([]snapshot, error) {
	hc := &http.Client{Timeout: 10 * time.Second}
	out := make([]snapshot, 0, len(t.workers)+1)
	for _, p := range t.procs() {
		resp, err := hc.Get("http://" + p.addr + "/metrics?format=json")
		if err != nil {
			return nil, fmt.Errorf("scraping %s: %w", p.name, err)
		}
		var ms []obs.MetricJSON
		err = json.NewDecoder(resp.Body).Decode(&ms)
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("scraping %s: %w", p.name, err)
		}
		out = append(out, indexSnapshot(ms))
	}
	return out, nil
}

// loadRun is the timed phase of the service workload.
type loadRun struct {
	users   []userRun
	t0, end time.Time
}

// runClosedLoop runs every session with nproc clients, each starting its
// next session as soon as its last one ended.
func runClosedLoop(c *client, inputs []svcInput, seed int64) loadRun {
	n := len(inputs)
	who := rand.New(rand.NewSource(seed)).Perm(n)
	lr := loadRun{users: make([]userRun, n)}
	var next atomic.Int64
	var wg sync.WaitGroup
	lr.t0 = time.Now()
	for k := 0; k < runtime.NumCPU(); k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				u := c.user(i, inputs[who[i]])
				u.out.Input = who[i]
				lr.users[i] = u
			}
		}()
	}
	wg.Wait()
	for _, u := range lr.users {
		if u.end.After(lr.end) {
			lr.end = u.end
		}
	}
	return lr
}

// runService runs the service workload.
func runService(o options) (*report, error) {
	if o.bin == "" {
		return nil, errors.New("service needs --bin, the directory of the built qfe-server and qfe-router")
	}
	n := servicePerSecond * o.seconds
	tr := newTracer(o.trace)
	inputs, buildSecs, err := repeatSetup(func() ([]svcInput, error) { return serviceInputs(serviceCorpusSeed, n) })
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	topo, err := startTopology(o.bin, filepath.Join(o.work, fmt.Sprintf("service-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	startS := time.Since(t0).Seconds()
	running := true
	defer func() {
		if running {
			topo.stop()
		}
	}()
	before, err := scrape(topo)
	if err != nil {
		return nil, err
	}
	runtime.GC()
	c := newClient("http://"+topo.router.addr, tr)
	rt0 := readRuntime()
	lr := runClosedLoop(c, inputs, o.seed)
	rt1 := readRuntime()
	after, err := scrape(topo)
	if err != nil {
		return nil, err
	}
	running = false
	rss := topo.stop()

	rep := &report{Workload: o.workload, tr: tr}
	rep.Design = []string{
		fmt.Sprintf("closed loop: %d clients (one connection each) running %d sessions back to back in seed-%d order",
			runtime.NumCPU(), n, o.seed),
		fmt.Sprintf("topology: qfe-router -> %d qfe-server -wal workers (fsync always, qbo cap 32, Parallelism 0)", serviceWorkers),
		fmt.Sprintf("inputs: %d generated scenarios (corpus seed %d, tables of %d-%d rows) shipped as codec tables; per round one GET and one seq-carrying feedback",
			n, serviceCorpusSeed, serviceMinRows, serviceMaxRows),
	}
	setup := setupLine(buildSecs, startS, fmt.Sprintf(" + one start of router and workers to their listening lines (%.4f s)", startS))
	serviceReport(rep, setup, lr, inputs, before, after, rt0, rt1, rss, tr)
	return rep, nil
}

// serviceReport gates the outcomes and computes the metrics and ledgers.
func serviceReport(rep *report, setup metricLine, lr loadRun, inputs []svcInput,
	before, after []snapshot, rt0, rt1 runtimeSample, rssMB float64, tr *tracer) {
	var first, rounds, reads []float64
	var outs []outcome
	var t serviceTotals
	refused, identified, modcost := 0, 0, 0
	for _, u := range lr.users {
		in := inputs[u.out.Input].in
		rep.Violations = append(rep.Violations, u.violations...)
		rep.Attempted += u.ops
		rep.Failed += u.failedOps
		t.respBytes += u.respBytes
		t.oracleMs += u.oracleMs
		t.createMs += u.createMs
		t.creates++
		t.feedbackMs += u.feedbackMs
		t.feedbacks += len(u.roundMs)
		reads = append(reads, u.readMs...)
		t.readMs += sum(u.readMs)
		t.candidates += u.candidates
		if u.out.Refused {
			refused++
		}
		if u.created {
			t.created++
			first = append(first, u.firstMs)
			rounds = append(rounds, u.roundMs...)
			t.roundsAnswered += u.out.Rounds
			modcost += u.out.ModCost
		}
		if u.result != nil {
			t.feedbacks++ // the final one
			if u.result.Query != nil {
				q, err := codec.DecodeQuery(*u.result.Query)
				if err != nil {
					rep.violate(fmt.Sprintf("%s: decoding the identified query: %v", in.Name, err))
				} else {
					u.out.Identified = q.Key()
					identified++
					rep.Violations = append(rep.Violations, checkIdentified(in, q)...)
				}
			}
			if rem, err := codec.DecodeQueries(u.result.Remaining); err == nil {
				for _, q := range rem {
					if q.Key() == in.Target.Key() {
						t.found++
						break
					}
				}
			}
		}
		outs = append(outs, u.out)
	}
	t.reads = len(reads)
	rep.Sessions = len(lr.users)
	rep.Digest = digest(outs)

	tailsAndCommon(rep, setup, len(lr.users), lr.end.Sub(lr.t0).Seconds(), first, rounds)
	rep.add(metricLine{Name: "rounds_per_session", Value: ratio(float64(t.roundsAnswered), float64(t.created)), Unit: "count", N: t.created,
		Note: "per created session"})
	rep.add(metricLine{Name: "modcost_per_session", Value: ratio(float64(modcost), float64(t.created)), Unit: "count", N: t.created,
		Note: "per created session"})
	rep.add(metricLine{Name: "identified_frac", Value: ratio(float64(identified), float64(len(lr.users))), Unit: "fraction", N: len(lr.users)})
	rep.add(metricLine{Name: "failed_frac", Value: ratio(float64(refused+rep.Failed), float64(rep.Attempted)), Unit: "fraction",
		N: rep.Attempted, Note: fmt.Sprintf("%d refused creates (the documented no-candidates 400), %d errors", refused, rep.Failed)})
	rep.add(metricLine{Name: "read_p50_ms", Value: median(reads), Unit: "ms", N: len(reads)})
	rep.add(metricLine{Name: "peak_rss_mb", Value: rssMB, Unit: "MB", N: 1 + serviceWorkers,
		Note: "sum of the router's and workers' peak RSS"})

	serviceLayers(rep, lr, before, after, rt0, rt1, tr, t)
}

type serviceTotals struct {
	createMs, feedbackMs, readMs, oracleMs       float64
	creates, feedbacks, reads, created           int
	candidates, found, roundsAnswered, respBytes int
}

// serviceLayers computes the service workload's per-layer metrics and
// ledgers from the router's and workers' obs deltas and the client totals.
func serviceLayers(rep *report, lr loadRun, before, after []snapshot, rt0, rt1 runtimeSample, tr *tracer, t serviceTotals) {
	router := obsDelta{{before[0], after[0]}}
	var workers obsDelta
	for i := 1; i < len(before); i++ {
		workers = append(workers, [2]snapshot{before[i], after[i]})
	}
	route := func(d obsDelta, r string) histDelta {
		return d.hist(seriesKey("qfe_http_request_seconds", map[string]string{"route": r}))
	}
	sessions := len(lr.users)
	s := float64(sessions)

	rep.layer(metricLine{Name: "qbo.ms_per_session", Skip: true, Note: "inside the worker: part of service.self on this workload"})
	rep.layer(metricLine{Name: "qbo.candidates_per_session", Value: ratio(float64(t.candidates), s), Unit: "count", N: sessions,
		Note: "candidates the server reported at create (0 when refused)"})
	rep.layer(metricLine{Name: "qbo.target_found_frac", Value: ratio(float64(t.found), s), Unit: "fraction", N: sessions,
		Note: "sessions whose final class holds the target (no injection on service)"})
	rep.layer(metricLine{Name: "core.self_ms_per_session", Skip: true, Note: "inside the worker: part of service.self on this workload"})
	engineLayers(rep, workers)

	ph := phaseMs(workers)
	walAppend, walFsync := workers.hist("qfe_wal_append_seconds"), workers.hist("qfe_wal_fsync_seconds")
	walMs := (walAppend.Sum + walFsync.Sum) * 1e3

	wc, wf, wg := route(workers, "/sessions"), route(workers, "/sessions/{id}/feedback"), route(workers, "/sessions/{id}")
	rc, rf, rg := route(router, "/sessions"), route(router, "/sessions/{id}/feedback"), route(router, "/sessions/{id}")
	mutations := float64(wc.Count + wf.Count)
	serviceSelfMs := (wc.Sum+wf.Sum)*1e3 - engineMs(ph) - walMs
	rep.layer(metricLine{Name: "service.create_ms_per_call", Value: wc.mean() * 1e3, Unit: "ms", N: int(wc.Count)})
	rep.layer(metricLine{Name: "service.feedback_ms_per_call", Value: wf.mean() * 1e3, Unit: "ms", N: int(wf.Count)})
	rep.layer(metricLine{Name: "service.get_ms_per_call", Value: wg.mean() * 1e3, Unit: "ms", N: int(wg.Count)})
	rep.layer(metricLine{Name: "service.self_ms_per_call", Value: ratio(serviceSelfMs, mutations), Unit: "ms", N: int(mutations),
		Note: "create+feedback handler time - engine - WAL: decode, qbo, encode, locks"})
	rep.layer(metricLine{Name: "wal.append_ms_per_call", Value: walAppend.mean() * 1e3, Unit: "ms", N: int(walAppend.Count)})
	rep.layer(metricLine{Name: "wal.fsync_ms_per_call", Value: walFsync.mean() * 1e3, Unit: "ms", N: int(walFsync.Count)})
	rep.layer(metricLine{Name: "wal.bytes_per_session", Value: ratio(workers.value("qfe_wal_bytes_total"), s), Unit: "B", N: sessions})
	rep.layer(metricLine{Name: "wal.records_per_session", Value: ratio(workers.value("qfe_wal_records_total"), s), Unit: "count", N: sessions})

	proxy := histDelta{}
	var perWorker []float64
	for i := range workers {
		proxy = proxy.add(router.hist(seriesKey("qfe_router_proxy_seconds", map[string]string{"worker": fmt.Sprintf("w%d", i)})))
		perWorker = append(perWorker, obsDelta{workers[i]}.value("qfe_sessions_started_total"))
	}
	routerMs := (rc.Sum + rf.Sum + rg.Sum) * 1e3
	workerMs := (wc.Sum + wf.Sum + wg.Sum) * 1e3
	calls := float64(t.creates + t.feedbacks + t.reads)
	rep.layer(metricLine{Name: "cluster.proxy_ms_per_call", Value: proxy.mean() * 1e3, Unit: "ms", N: int(proxy.Count)})
	rep.layer(metricLine{Name: "cluster.self_ms_per_call", Value: ratio(routerMs-workerMs, calls), Unit: "ms", N: int(calls),
		Note: "router handler time - worker handler time"})
	rep.layer(metricLine{Name: "cluster.retries", Value: router.value("qfe_router_retries_total"), Unit: "count", N: 1})
	rep.layer(metricLine{Name: "cluster.shed", Value: router.value("qfe_router_shed_total"), Unit: "count", N: 1})
	lo, hi := perWorker[0], perWorker[0]
	for _, c := range perWorker {
		lo, hi = min(lo, c), max(hi, c)
	}
	rep.layer(metricLine{Name: "cluster.worker_skew", Value: ratio(hi, lo), Unit: "ratio", N: len(perWorker),
		Note: "max/min sessions per worker"})
	rep.note("sessions created per worker: %v (router-minted random ids)", perWorker)
	clientMs := t.createMs + t.feedbackMs + t.readMs
	rep.layer(metricLine{Name: "codec.response_kb_per_call", Value: ratio(float64(t.respBytes)/1024, calls), Unit: "KB", N: int(calls)})
	rep.layer(metricLine{Name: "net.client_ms_per_call", Value: ratio(clientMs-routerMs, calls), Unit: "ms", N: int(calls),
		Note: "client latency - router handler time"})
	rep.layer(metricLine{Name: "runtime.alloc_mb_per_session", Value: ratio((rt1.allocBytes-rt0.allocBytes)/mib, s), Unit: "MB", N: sessions,
		Note: "load generator process"})
	rep.layer(metricLine{Name: "runtime.gc_cpu_frac", Value: ratio(rt1.gcCPU-rt0.gcCPU, rt1.totalCPU-rt0.totalCPU), Unit: "fraction", N: 1,
		Note: "load generator process"})
	rep.layer(metricLine{Name: "client.oracle_ms_per_round", Value: ratio(t.oracleMs, float64(t.roundsAnswered)), Unit: "ms", N: t.roundsAnswered,
		Note: "simulated user, not program work"})
	rep.layer(metricLine{Name: "trace.overhead_frac", Value: ratio(tr.overhead.Seconds(), lr.end.Sub(lr.t0).Seconds()), Unit: "fraction", N: 1})
	harnessLayer(rep, tr)

	// Ledgers. Client time outside the router's handler (loopback network,
	// the client's own encoding) is under no program timer and stays
	// unattributed. Per kind of call the split stops at the worker boundary:
	// engine and WAL instruments aggregate over creates and feedbacks, so
	// only the combined ledger splits the worker's time further.
	kind := func(name string, clientMs float64, n int, r, w histDelta) *ledgerAcc {
		l := newLedger(name, "cluster", "worker")
		l.totalMs, l.calls = clientMs, n
		l.add("cluster", (r.Sum-w.Sum)*1e3)
		l.add("worker", w.Sum*1e3)
		return l
	}
	firstL := kind("first_round", t.createMs, t.creates, rc, wc)
	roundL := kind("round", t.feedbackMs, t.feedbacks, rf, wf)
	total := newLedger("first_round+round", "cluster", "service", "wal")
	total.totalMs = t.createMs + t.feedbackMs
	total.calls = t.creates + t.feedbacks
	total.add("cluster", firstL.parts["cluster"]+roundL.parts["cluster"])
	total.add("service", serviceSelfMs)
	total.add("wal", walMs)
	engineRows(total, ph)
	rep.Ledgers = append(rep.Ledgers, firstL.table(), roundL.table())
	shareMetrics(rep, total)
	rep.Ledgers = append(rep.Ledgers, kind("read", t.readMs, t.reads, rg, wg).table())
	rep.note("on service the first_round and round ledgers cover every create (refused ones too) and every feedback (final ones too): server-side instruments cannot tell them apart")
}
