// Cluster chaos harness: end-to-end validation of the cluster tier
// (DESIGN.md §12) with real processes. RunClusterChaos launches N
// qfe-server workers and a qfe-router as subprocesses, drives concurrent
// sessions through the router while a killer goroutine SIGKILLs random
// workers at progress-randomized points (dead workers stay dead — the
// router fences them, hands their WAL estate to the survivors, and
// reassigns their hash range), and verifies the same two properties as the
// single-node harness:
//
//   - zero lost acknowledged state: every session any worker acknowledged
//     survives the deaths of up to Nodes-1 workers, and
//   - outcome determinism: every session's final outcome is byte-identical
//     to a reference run against one uninterrupted single-node server.
package simulate

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"qfe/internal/par"
	"qfe/internal/retry"
	"qfe/internal/service"
)

// ClusterChaosOptions tunes a cluster chaos run. RouterBin joins
// ChaosOptions.ServerBin as a required binary path.
type ClusterChaosOptions struct {
	ChaosOptions
	// RouterBin is the path to a built qfe-router binary.
	RouterBin string
	// Nodes is the worker count (default 3).
	Nodes int
	// Kills (from ChaosOptions) is how many workers to SIGKILL; clamped to
	// Nodes-1 so at least one worker survives to adopt the estates.
}

// ClusterReport is the JSON report of a cluster chaos run
// (BENCH_cluster.json).
type ClusterReport struct {
	Sessions    int   `json:"sessions"`
	Nodes       int   `json:"nodes"`
	Workers     int   `json:"workers"`
	Kills       int   `json:"kills"`       // requested worker deaths
	KillsLanded int   `json:"killsLanded"` // SIGKILLs actually delivered mid-run
	Seed        int64 `json:"seed"`

	// Outcomes against the single-node reference run.
	tally

	// HTTPRetries counts client attempts retried against the router.
	HTTPRetries int `json:"httpRetries"`

	// Router counters at the end of the run (see cluster.CounterSnapshot).
	Failovers     int64 `json:"failovers"`
	AdoptCalls    int64 `json:"adoptCalls"`
	AdoptErrors   int64 `json:"adoptErrors"`
	RouterRetries int64 `json:"routerRetries"`
	Shed          int64 `json:"shed"`

	WallNs int64 `json:"wallNs"`
}

// RunClusterChaos executes the full harness: a single-node reference pass,
// then the cluster pass with worker SIGKILLs, then the comparison. The
// caller gates on Lost, Mismatched and Errors all being zero.
func RunClusterChaos(opts ClusterChaosOptions) (*ClusterReport, error) {
	if opts.RouterBin == "" {
		return nil, errors.New("cluster: RouterBin is required")
	}
	cleanup, err := opts.withDefaults("cluster")
	if err != nil {
		return nil, err
	}
	defer cleanup()
	if opts.Nodes <= 0 {
		opts.Nodes = 3
	}
	if opts.Kills <= 0 {
		opts.Kills = 1
	}
	if opts.Kills > opts.Nodes-1 {
		// At least one worker must survive to adopt the estates.
		opts.Kills = opts.Nodes - 1
	}

	t0 := time.Now()

	// Reference pass: the same corpus against one uninterrupted single-node
	// server. The cluster must reproduce these outcomes byte-identically —
	// placement, failover and adoption may move sessions between machines
	// but must never change what the engine computes.
	fmt.Fprintf(opts.Log, "cluster: reference pass: %d sessions, %d workers (single node)\n",
		opts.Sessions, opts.Workers)
	refOut, _, err := runPass(opts.ChaosOptions, filepath.Join(opts.WorkDir, "ref"), nil)
	if err != nil {
		return nil, fmt.Errorf("cluster: reference pass: %w", err)
	}

	rep := &ClusterReport{
		Sessions: opts.Sessions,
		Nodes:    opts.Nodes,
		Workers:  opts.Workers,
		Kills:    opts.Kills,
		Seed:     opts.Seed,
	}

	// Cluster topology: N workers, each with its own state file and WAL
	// directory, plus the router fronting them.
	workers := make([]*launcher, opts.Nodes)
	defer func() {
		for _, w := range workers {
			if w != nil {
				w.kill()
			}
		}
	}()
	routerArgs := []string{
		"-probe-interval", "100ms",
		"-dead-after", "3",
		"-retry-budget", "30s",
		"-call-timeout", opts.CallTimeout.String(),
	}
	for i := range workers {
		id := "w" + strconv.Itoa(i)
		dir := filepath.Join(opts.WorkDir, "node-"+strconv.Itoa(i))
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		w := &launcher{name: id, bin: opts.ServerBin, args: append(serverArgs(opts.ChaosOptions, dir), "-admin")}
		if err := w.start(); err != nil {
			return nil, err
		}
		workers[i] = w
		routerArgs = append(routerArgs, "-worker", fmt.Sprintf("id=%s,url=%s,state=%s,wal=%s",
			id, w.url(), filepath.Join(dir, "state.json"), filepath.Join(dir, "wal")))
	}
	router := &launcher{name: "router", bin: opts.RouterBin, args: routerArgs}
	if err := router.start(); err != nil {
		return nil, err
	}
	defer router.kill()
	fmt.Fprintf(opts.Log, "cluster: kill pass: %d worker(s) + router up, %d progress-triggered kill(s)\n",
		opts.Nodes, opts.Kills)

	client := service.NewClient(router.url(), retry.HTTPClient(opts.CallTimeout), opts.RetryFor)

	// Killer: at each progress-randomized point, SIGKILL one random
	// still-alive worker. No restarts — death is terminal in the cluster
	// design; the router must reroute and the survivors must carry on. Kill
	// points land in the first ~60% of the run so every requested death
	// happens while sessions are still in flight (the comparison is only
	// interesting for kills the cluster had to survive mid-load).
	done := make(chan struct{})
	var completed atomic.Int64
	var killsLanded atomic.Int64
	var killerWG sync.WaitGroup
	rng := rand.New(rand.NewSource(opts.Seed))
	points := make([]int, opts.Kills)
	for k := range points {
		points[k] = rng.Intn(opts.Sessions*3/5 + 1)
	}
	slices.Sort(points)
	alive := make([]int, opts.Nodes)
	for i := range alive {
		alive[i] = i
	}
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
			// Once the point is reached the kill always fires (even if the
			// run drains in this instant): the jitter lands the SIGKILL at an
			// arbitrary instruction rather than on a session boundary.
			time.Sleep(time.Duration(rng.Int63n(int64(40 * time.Millisecond))))
			vi := rng.Intn(len(alive))
			victim := alive[vi]
			alive = append(alive[:vi], alive[vi+1:]...)
			workers[victim].kill()
			killsLanded.Add(1)
			fmt.Fprintf(opts.Log, "cluster: kill %d/%d: SIGKILL w%d (at %d completed sessions); %d worker(s) left\n",
				k+1, opts.Kills, victim, completed.Load(), len(alive))
		}
	}()

	out := make([]sessionOutcome, opts.Sessions)
	par.Do(opts.Sessions, opts.Workers, func(i int) {
		sc := opts.Corpus[i%len(opts.Corpus)]
		o, err := driveSession(client, sc, opts.MaxCandidates)
		out[i] = sessionOutcome{outcome: o, err: err}
		completed.Add(1)
	})
	close(done)
	killerWG.Wait()
	rep.KillsLanded = int(killsLanded.Load())
	rep.HTTPRetries = int(client.Retries())

	// Fold in the router's own counters before tearing anything down. The
	// fields mirror cluster.ClusterStats', decoded structurally to keep the
	// router out of the harness's imports.
	var stats struct {
		Counters struct {
			Retries     int64 `json:"retries"`
			Shed        int64 `json:"shed"`
			Failovers   int64 `json:"failovers"`
			AdoptCalls  int64 `json:"adoptCalls"`
			AdoptErrors int64 `json:"adoptErrors"`
		} `json:"counters"`
	}
	if err := getJSON(router.url()+"/cluster/stats", &stats); err == nil {
		rep.Failovers = stats.Counters.Failovers
		rep.AdoptCalls = stats.Counters.AdoptCalls
		rep.AdoptErrors = stats.Counters.AdoptErrors
		rep.RouterRetries = stats.Counters.Retries
		rep.Shed = stats.Counters.Shed
	} else {
		fmt.Fprintf(opts.Log, "cluster: fetching router stats: %v\n", err)
	}

	rep.tally = compare(opts.Log, "cluster", refOut, out)
	rep.WallNs = int64(time.Since(t0))
	return rep, nil
}
