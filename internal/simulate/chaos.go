// Chaos harness: crash-recovery validation of qfe-server's WAL durability
// path (DESIGN.md §11) from the outside. RunChaos launches a real qfe-server
// subprocess with a WAL and drives concurrent sessions against it over HTTP
// while a killer goroutine SIGKILLs the process at randomized moments and
// restarts it on the same address. Clients (service.Client) retry through
// the crashes with seq-tagged feedback (idempotent under lost
// acknowledgements) and verify two properties:
//
//   - zero lost acknowledged state: every session the server acknowledged
//     survives each crash (a 404 for a created session, or a 409 seq-ahead
//     response for an acknowledged round, is a durability violation), and
//   - replay determinism: every session's final outcome is byte-identical
//     to a reference run of the same corpus against an uninterrupted server.
//
// SIGKILL cannot tear a completed write(2) (the page cache survives the
// process), so the harness validates logical recovery under any -wal-sync
// policy; torn-tail and corruption handling are unit-tested in internal/wal
// by direct file surgery.
package simulate

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"qfe/internal/fault"
	"qfe/internal/feedback"
	"qfe/internal/par"
	"qfe/internal/retry"
	"qfe/internal/scenario"
	"qfe/internal/service"
)

// ChaosOptions tunes a chaos run. ServerBin and Corpus are required.
type ChaosOptions struct {
	// ServerBin is the path to a built qfe-server binary.
	ServerBin string
	// Corpus supplies the scenarios; sessions cycle through it.
	Corpus []*scenario.Scenario
	// Sessions is how many sessions to drive (default 50).
	Sessions int
	// Workers is client-side concurrency (default 8).
	Workers int
	// Kills is how many SIGKILL+restart cycles to inject (default 5). The
	// killer is progress-triggered: each kill fires when a randomized
	// number of sessions has completed, so kills land mid-run on any
	// machine speed instead of depending on wall-clock pacing.
	Kills int
	// Seed randomizes kill points (and nothing else; the sessions
	// themselves are deterministic).
	Seed int64
	// WorkDir holds the server's state file and WAL (default: a temp dir,
	// removed afterwards).
	WorkDir string
	// MaxCandidates caps server-side candidate generation (default 16).
	MaxCandidates int
	// SyncPolicy is passed to -wal-sync (default "off": SIGKILL recovery
	// does not need fsync, and the run is much faster).
	SyncPolicy string
	// Checkpoint is the server's -checkpoint cadence (default 500ms, so
	// runs exercise snapshot+truncate+replay-tail recovery, not just
	// full-log replay).
	Checkpoint time.Duration
	// CallTimeout bounds one HTTP attempt (default 30s); RetryFor bounds
	// the whole retry loop around a call (default 2 minutes — it must
	// cover a crash, a restart and a full recovery replay).
	CallTimeout time.Duration
	RetryFor    time.Duration
	// Faults scripts injected storage and network failures for the chaos
	// pass (nil = crashes only). The server subprocess gets the schedule's
	// storage + inbound faults via -fault-schedule; the harness client's
	// transport applies the outbound ones. The reference pass always runs
	// unfaulted — it defines the outcomes the faulted run must reproduce.
	Faults *fault.Schedule
	// Log receives harness progress lines (default os.Stderr; io.Discard
	// silences it).
	Log io.Writer
}

// ChaosReport is the JSON report of a chaos run (BENCH_chaos.json).
type ChaosReport struct {
	Sessions int   `json:"sessions"`
	Workers  int   `json:"workers"`
	Kills    int   `json:"kills"`
	Restarts int   `json:"restarts"`
	Seed     int64 `json:"seed"`

	// Outcomes against the uninterrupted reference run.
	tally

	// HTTPRetries counts client attempts that hit a down or restarting
	// server and were retried.
	HTTPRetries int `json:"httpRetries"`

	// Recovery counters summed over restarts, from the server's /stats.
	SessionsRestored   uint64 `json:"sessionsRestored"`
	SessionsReplayed   uint64 `json:"sessionsReplayed"`
	WALRecordsReplayed uint64 `json:"walRecordsReplayed"`
	RecoveryTotalNs    int64  `json:"recoveryTotalNs"`
	RecoveryMaxNs      int64  `json:"recoveryMaxNs"`

	// Fault-plane observations, summed across server process generations
	// (each restart resets the server's in-memory counters, so the harness
	// samples /stats before every kill and once at the end).
	FaultSpec         string `json:"faultSpec,omitempty"`
	WALAppendErrors   uint64 `json:"walAppendErrors,omitempty"`
	DegradedEntered   uint64 `json:"degradedEntered,omitempty"`
	DegradedRecovered uint64 `json:"degradedRecovered,omitempty"`

	WallNs int64 `json:"wallNs"`
}

// withDefaults checks the options both harnesses share and fills in their
// defaults; name prefixes errors and the temp WorkDir. Kills is left to
// the caller, whose kill semantics differ. cleanup removes a WorkDir made
// here.
func (opts *ChaosOptions) withDefaults(name string) (cleanup func(), err error) {
	if opts.ServerBin == "" {
		return nil, fmt.Errorf("%s: ServerBin is required", name)
	}
	if len(opts.Corpus) == 0 {
		return nil, fmt.Errorf("%s: empty corpus", name)
	}
	if opts.Sessions <= 0 {
		opts.Sessions = 50
	}
	if opts.Workers <= 0 {
		opts.Workers = 8
	}
	if opts.MaxCandidates <= 0 {
		opts.MaxCandidates = 16
	}
	if opts.SyncPolicy == "" {
		opts.SyncPolicy = "off"
	}
	if opts.Checkpoint <= 0 {
		opts.Checkpoint = 500 * time.Millisecond
	}
	if opts.CallTimeout <= 0 {
		opts.CallTimeout = 30 * time.Second
	}
	if opts.RetryFor <= 0 {
		opts.RetryFor = 2 * time.Minute
	}
	if opts.Log == nil {
		opts.Log = os.Stderr
	}
	if opts.WorkDir != "" {
		return func() {}, nil
	}
	dir, err := os.MkdirTemp("", "qfe-"+name+"-")
	if err != nil {
		return nil, err
	}
	opts.WorkDir = dir
	return func() { os.RemoveAll(dir) }, nil
}

// serverArgs are the qfe-server flags of a node whose state file and WAL
// live in dir (all but -addr, which the launcher supplies).
func serverArgs(opts ChaosOptions, dir string) []string {
	return []string{
		"-state", filepath.Join(dir, "state.json"),
		"-wal", filepath.Join(dir, "wal"),
		"-wal-sync", opts.SyncPolicy,
		"-checkpoint", opts.Checkpoint.String(),
		"-candidates", strconv.Itoa(opts.MaxCandidates),
	}
}

// getJSON decodes the body of a 200 response to GET url into v.
func getJSON(url string, v any) error {
	resp, err := retry.HTTPClient(5 * time.Second).Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", url, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// driveSession runs one scenario to its outcome through the retrying
// client, answering rounds with target-policy feedback. It returns the
// final outcome (for comparison against the reference run).
func driveSession(c *service.Client, sc *scenario.Scenario, maxCand int) (*service.OutcomeJSON, error) {
	ctx := context.Background()
	oracle := feedback.Target{Query: sc.Target}
	st, err := c.Create(ctx, createRequest(sc, maxCand))
	if err != nil {
		return nil, err
	}
	for !st.Done {
		if st.Round == nil {
			return nil, errors.New("chaos: server returned neither round nor outcome")
		}
		choice, err := chooseRound(sc, oracle, st.Round)
		if err != nil {
			return nil, err
		}
		if st, err = c.Feedback(ctx, st.ID, st.Round.Seq, choice); err != nil {
			return nil, err
		}
	}
	if st.Outcome == nil {
		return nil, errors.New("chaos: finished session without outcome")
	}
	return st.Outcome, nil
}

// RunChaos executes the full harness: a reference pass against an
// uninterrupted server, then the chaos pass with SIGKILL injection, then
// the comparison. It returns the report; the caller decides what counts as
// failure (the CLI gates on Lost > 0 or Mismatched > 0).
func RunChaos(opts ChaosOptions) (*ChaosReport, error) {
	cleanup, err := opts.withDefaults("chaos")
	if err != nil {
		return nil, err
	}
	defer cleanup()
	if opts.Kills < 0 {
		opts.Kills = 0
	} else if opts.Kills == 0 {
		opts.Kills = 5
	}

	t0 := time.Now()

	// Reference pass: same corpus, same server binary and flags, no kills.
	// Replay determinism is then "chaos outcomes == reference outcomes".
	fmt.Fprintf(opts.Log, "chaos: reference pass: %d sessions, %d workers\n", opts.Sessions, opts.Workers)
	refOut, _, err := runPass(opts, filepath.Join(opts.WorkDir, "ref"), nil)
	if err != nil {
		return nil, fmt.Errorf("chaos: reference pass: %w", err)
	}

	// Chaos pass.
	fmt.Fprintf(opts.Log, "chaos: kill pass: %d progress-triggered kill(s)\n", opts.Kills)
	rep := &ChaosReport{
		Sessions: opts.Sessions,
		Workers:  opts.Workers,
		Kills:    opts.Kills,
		Seed:     opts.Seed,
	}
	if opts.Faults != nil {
		fmt.Fprintf(opts.Log, "chaos: fault injection: %d storage + %d network fault(s)\n",
			len(opts.Faults.Storage), len(opts.Faults.Network))
	}
	chaosOut, kstats, err := runPass(opts, filepath.Join(opts.WorkDir, "chaos"), rep)
	if err != nil {
		return nil, fmt.Errorf("chaos: kill pass: %w", err)
	}

	rep.Restarts = kstats.restarts
	rep.HTTPRetries = int(kstats.retries)
	rep.SessionsRestored = kstats.restored
	rep.SessionsReplayed = kstats.replayed
	rep.WALRecordsReplayed = kstats.records
	rep.RecoveryTotalNs = kstats.recoveryTotal
	rep.RecoveryMaxNs = kstats.recoveryMax
	rep.WALAppendErrors = kstats.walAppendErrors
	rep.DegradedEntered = kstats.degradedEntered
	rep.DegradedRecovered = kstats.degradedRecovered
	rep.tally = compare(opts.Log, "chaos", refOut, chaosOut)
	rep.WallNs = int64(time.Since(t0))
	return rep, nil
}

// sessionOutcome is one driven session's result in a pass.
type sessionOutcome struct {
	outcome *service.OutcomeJSON
	err     error
}

// tally is what a pass's sessions came to against the reference pass.
// Completed sessions reached an outcome; Lost counts durability violations
// (a session or round the servers acknowledged and later did not know);
// Mismatched counts outcomes that differ from the uninterrupted reference
// run. Skipped slots failed in the reference pass and are excluded from
// the comparison. A correct server keeps Lost, Mismatched and Errors at
// zero.
type tally struct {
	Completed  int `json:"completed"`
	Lost       int `json:"lostAcknowledged"`
	Mismatched int `json:"outcomeMismatches"`
	Errors     int `json:"errors"`
	Skipped    int `json:"skipped"`
}

// compare tallies a pass's sessions against the reference pass's, logging
// every session that did not reproduce its reference outcome. A reference
// failure is deterministic (no kills happen in that pass): the server
// cannot serve the scenario at all — most often create returns 400 because
// server-side candidate generation found no SPJ query — so the slot is
// skipped. A 404 or a 409 (ErrNotFound, ErrSeqAhead) is acknowledged state
// lost.
func compare(log io.Writer, name string, ref, run []sessionOutcome) tally {
	var t tally
	for i, o := range run {
		switch {
		case ref[i].err != nil:
			t.Skipped++
			fmt.Fprintf(log, "%s: session %d: skipped (reference: %v)\n", name, i, ref[i].err)
		case errors.Is(o.err, service.ErrNotFound), errors.Is(o.err, service.ErrSeqAhead):
			t.Lost++
			fmt.Fprintf(log, "%s: session %d: LOST: %v\n", name, i, o.err)
		case o.err != nil:
			t.Errors++
			fmt.Fprintf(log, "%s: session %d: error: %v\n", name, i, o.err)
		default:
			t.Completed++
			want, _ := json.Marshal(ref[i].outcome)
			got, _ := json.Marshal(o.outcome)
			if !bytes.Equal(want, got) {
				t.Mismatched++
				fmt.Fprintf(log, "%s: session %d: outcome mismatch:\n  reference: %s\n  %s: %s\n", name, i, want, name, got)
			}
		}
	}
	return t
}

// killerStats aggregates what the killer goroutine observed.
type killerStats struct {
	restarts      int
	retries       int64
	restored      uint64
	replayed      uint64
	records       uint64
	recoveryTotal int64
	recoveryMax   int64

	// Fault-plane counters, summed across process generations.
	walAppendErrors   uint64
	degradedEntered   uint64
	degradedRecovered uint64
}

// addFaultStats folds one process generation's fault counters in.
func (ks *killerStats) addFaultStats(st service.Stats) {
	ks.walAppendErrors += st.WALAppendErrors
	ks.degradedEntered += st.DegradedEntered
	ks.degradedRecovered += st.DegradedRecovered
}

// runPass drives opts.Sessions sessions against one server instance. With
// rep non-nil this is the chaos pass: a killer goroutine SIGKILLs and
// restarts the server at seeded random intervals until the kill budget or
// the sessions run out.
func runPass(opts ChaosOptions, workDir string, rep *ChaosReport) ([]sessionOutcome, killerStats, error) {
	var ks killerStats
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, ks, err
	}
	srv := &launcher{name: "qfe-server", bin: opts.ServerBin, args: serverArgs(opts, workDir)}
	// Faults apply only to the chaos pass (rep != nil): the reference pass
	// defines the outcomes the faulted run must still reproduce. The
	// schedule re-arms on every restart, so early faults replay in each
	// process generation.
	faulted := rep != nil && opts.Faults != nil
	if faulted && (opts.Faults.HasStorage() || opts.Faults.HasNetwork(fault.SideInbound)) {
		path := filepath.Join(workDir, "faults.json")
		if err := opts.Faults.Save(path); err != nil {
			return nil, ks, fmt.Errorf("chaos: writing fault schedule: %w", err)
		}
		srv.args = append(srv.args, "-fault-schedule", path)
	}
	if err := srv.start(); err != nil {
		return nil, ks, err
	}
	defer srv.kill()
	statsURL := srv.url() + "/stats"

	httpc := retry.HTTPClient(opts.CallTimeout)
	if faulted && opts.Faults.HasNetwork(fault.SideOutbound) {
		httpc.Transport = fault.NewTransport(httpc.Transport, opts.Faults, func(format string, args ...any) {
			fmt.Fprintf(opts.Log, format+"\n", args...)
		})
	}
	client := service.NewClient(srv.url(), httpc, opts.RetryFor)

	done := make(chan struct{})
	var completed atomic.Int64
	var killerWG sync.WaitGroup
	if rep != nil && opts.Kills > 0 {
		// Progress-triggered kill points: each kill fires once a randomized
		// number of sessions (within the first ~85% of the run) has
		// completed, plus a small random delay so the SIGKILL lands at an
		// arbitrary instruction — mid-round, mid-journal-append,
		// mid-checkpoint — rather than on a session boundary.
		rng := rand.New(rand.NewSource(opts.Seed))
		points := make([]int, opts.Kills)
		for k := range points {
			points[k] = rng.Intn(opts.Sessions*17/20 + 1)
		}
		slices.Sort(points)
		killerWG.Add(1)
		go func() {
			defer killerWG.Done()
			for k, point := range points {
				for completed.Load() < int64(point) {
					select {
					case <-done:
						return
					case <-time.After(2 * time.Millisecond):
					}
				}
				jitter := time.Duration(rng.Int63n(int64(40 * time.Millisecond)))
				select {
				case <-done:
					return
				case <-time.After(jitter):
				}
				// Fault counters live in server memory and die with the
				// process: sample them before the SIGKILL (best-effort —
				// /stats stays served even in degraded mode).
				var before service.Stats
				if getJSON(statsURL, &before) == nil {
					ks.addFaultStats(before)
				}
				srv.kill()
				fmt.Fprintf(opts.Log, "chaos: kill %d/%d (at %d completed sessions, +%s), restarting\n",
					k+1, opts.Kills, completed.Load(), jitter)
				if err := srv.start(); err != nil {
					fmt.Fprintf(opts.Log, "chaos: restart failed: %v\n", err)
					return
				}
				ks.restarts++
				var st service.Stats
				if getJSON(statsURL, &st) == nil {
					ks.restored += st.SessionsRestored
					ks.replayed += st.SessionsReplayed
					ks.records += st.WALRecordsReplayed
					ks.recoveryTotal += st.RecoveryNs
					ks.recoveryMax = max(ks.recoveryMax, st.RecoveryNs)
				}
			}
		}()
	}

	out := make([]sessionOutcome, opts.Sessions)
	par.Do(opts.Sessions, opts.Workers, func(i int) {
		sc := opts.Corpus[i%len(opts.Corpus)]
		o, err := driveSession(client, sc, opts.MaxCandidates)
		out[i] = sessionOutcome{outcome: o, err: err}
		completed.Add(1)
	})
	close(done)
	killerWG.Wait()
	ks.retries = client.Retries()
	if faulted {
		// The final process generation was never sampled by the killer.
		var st service.Stats
		if getJSON(statsURL, &st) == nil {
			ks.addFaultStats(st)
		}
	}
	return out, ks, nil
}
