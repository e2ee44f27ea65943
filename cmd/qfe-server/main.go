// Command qfe-server serves Query-From-Examples winnowing sessions over an
// HTTP/JSON API, turning the paper's interactive loop into a long-lived
// service: each session holds one user mid-round; feedback requests step the
// underlying state machine.
//
// API (see README.md for a curl transcript):
//
//	POST   /sessions                create a session from a built-in dataset
//	                                ({"dataset":"demo"}) or from CSV/JSON
//	                                tables and a result relation; responds
//	                                with the first feedback round
//	GET    /sessions/{id}           current round, or the outcome once done
//	POST   /sessions/{id}/feedback  {"choice": i, "seq": n} — 0-based result
//	                                index, -1 for "none of these"; seq (the
//	                                round answered) is required and makes
//	                                the request idempotent under retries
//	DELETE /sessions/{id}           abandon the session
//	GET    /stats                   session/round counters
//
// Sessions are evicted after -ttl of inactivity and capped at -max-sessions
// live sessions (further creates get 429).
//
// Durability (DESIGN.md §11): with -state FILE, sessions are checkpointed to
// FILE (atomic temp-file + rename) on shutdown and every -checkpoint
// interval, and restored on the next start. With -wal DIR, every session
// transition is additionally journaled to a write-ahead log before it is
// acknowledged, so sessions survive crashes (SIGKILL, power loss per
// -wal-sync) — recovery replays the WAL tail on top of the newest snapshot
// and checkpoints truncate the log. -wal forces a deterministic pair-count
// generator budget so replay reproduces rounds byte-identically.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"qfe/internal/core"
	"qfe/internal/dbgen"
	"qfe/internal/fault"
	"qfe/internal/obs"
	"qfe/internal/service"
	"qfe/internal/wal"
)

func main() {
	var (
		addr        = flag.String("addr", ":8080", "listen address (port 0 picks a free port, printed on start)")
		ttl         = flag.Duration("ttl", 30*time.Minute, "evict sessions idle for longer than this")
		maxSessions = flag.Int("max-sessions", 1024, "cap on live sessions (backpressure beyond)")
		maxCand     = flag.Int("candidates", 32, "max candidate queries generated per session")
		statePath   = flag.String("state", "", "snapshot file: restore on start, checkpoint on shutdown (atomic replace)")
		parallelism = flag.Int("parallelism", 0, fmt.Sprintf("worker count per session (0 = all cores, at most %d)", core.MaxParallelism))

		readTimeout  = flag.Duration("read-timeout", 30*time.Second, "max time to read one request (hardening against slow clients)")
		writeTimeout = flag.Duration("write-timeout", 2*time.Minute, "max time to serve one request; must cover a slow round generation")
		idleTimeout  = flag.Duration("idle-timeout", 2*time.Minute, "keep-alive connection idle limit")
		maxBody      = flag.Int64("max-body", 64<<20, "request body size cap in bytes (413 beyond)")
		admin        = flag.Bool("admin", false, "expose POST /admin/adopt (cluster failover handoff; enable only behind a router)")

		walDir       = flag.String("wal", "", "write-ahead log directory: journal every transition before acknowledging it")
		walSync      = flag.String("wal-sync", "always", "WAL sync policy: always (fsync per record), interval, off")
		walSyncEvery = flag.Duration("wal-sync-interval", 50*time.Millisecond, "fsync cadence for -wal-sync=interval")
		walSegBytes  = flag.Int64("wal-segment-bytes", 4<<20, "rotate WAL segments beyond this size")
		checkpoint   = flag.Duration("checkpoint", time.Minute, "snapshot + WAL truncation cadence (needs -state; 0 disables)")

		faultSpec = flag.String("fault-schedule", "", "deterministic fault injection: schedule JSON file or seed:N (testing only)")

		logFormat = flag.String("log-format", "text", "structured log format: text or json")
		debugAddr = flag.String("debug-addr", "", "serve net/http/pprof and /metrics on this extra address (empty = off)")
	)
	flag.Parse()

	lf, err := obs.ParseLogFormat(*logFormat)
	if err != nil {
		fmt.Fprintln(os.Stderr, "qfe-server:", err)
		os.Exit(1)
	}
	// Logs go to stderr: stdout stays reserved for the machine-parsed
	// "listening on" line the port-0 harnesses read.
	logger := obs.SetupLogger(lf, os.Stderr)
	obs.ServeDebug(*debugAddr, func(format string, args ...any) {
		logger.Error(fmt.Sprintf(format, args...))
	})

	if *parallelism < 0 || *parallelism > core.MaxParallelism {
		fmt.Fprintf(os.Stderr, "qfe-server: -parallelism %d outside [0, %d]\n", *parallelism, core.MaxParallelism)
		os.Exit(1)
	}
	cfg := core.DefaultConfig()
	cfg.Parallelism = *parallelism
	if *walDir != "" {
		// WAL replay re-runs the generator; a wall-clock budget would make
		// the regenerated rounds machine- and load-dependent. Force the
		// deterministic pair-count budget the simulator uses.
		cfg.Gen.Budget = dbgen.Budget{MaxPairs: 100000}
		logger.Info("-wal forces deterministic generator budget", "pairs", 100000)
	}

	// The injected fault plane (testing only): scripted storage faults ride
	// the journal, scripted inbound network faults ride the listener.
	var sched *fault.Schedule
	if *faultSpec != "" {
		var err error
		if sched, err = fault.Load(*faultSpec); err != nil {
			logger.Error("bad -fault-schedule", "err", err)
			os.Exit(1)
		}
		logger.Warn("fault injection armed",
			"spec", *faultSpec, "storage", len(sched.Storage), "network", len(sched.Network))
	}
	faultLogf := func(format string, args ...any) {
		logger.Warn(fmt.Sprintf(format, args...))
	}

	// journal is assigned only when a log is actually open — a nil *wal.Log
	// stuffed into the interface would read as non-nil to the service tier.
	var (
		journal       service.Journal
		journalCloser interface{ Close() error }
	)
	if *walDir != "" {
		pol, err := wal.ParseSyncPolicy(*walSync)
		if err != nil {
			logger.Error("bad -wal-sync", "err", err)
			os.Exit(1)
		}
		wopts := wal.Options{
			Dir:          *walDir,
			SegmentBytes: *walSegBytes,
			Sync:         pol,
			SyncInterval: *walSyncEvery,
		}
		if sched.HasStorage() {
			fj, err := fault.OpenJournal(wopts, sched, faultLogf)
			if err != nil {
				logger.Error("wal open failed", "dir", *walDir, "err", err)
				os.Exit(1)
			}
			journal, journalCloser = fj, fj
		} else {
			l, err := wal.Open(wopts)
			if err != nil {
				logger.Error("wal open failed", "dir", *walDir, "err", err)
				os.Exit(1)
			}
			journal, journalCloser = l, l
		}
	}

	m := service.New(service.Options{
		TTL:         *ttl,
		MaxSessions: *maxSessions,
		Config:      cfg,
		Journal:     journal,
	})

	// Session-population gauges are registered here, against this process's
	// single Manager (the service package cannot: tests build many Managers
	// and per-Manager registration would alias them).
	obs.NewGaugeFunc("qfe_sessions_resident",
		"Sessions currently held by this server.",
		func() float64 { return float64(m.Resident()) })
	obs.NewGaugeFunc("qfe_sessions_live",
		"Resident, unfinished sessions on this server.",
		func() float64 { return float64(m.Live()) })

	// Recover before serving: newest snapshot first, then deterministic
	// replay of the WAL tail. With no -wal this degrades to the plain
	// snapshot restore.
	if *statePath != "" || *walDir != "" {
		rstats, err := m.Recover(*statePath, *walDir)
		if err != nil {
			logger.Error("recover failed", "err", err)
			os.Exit(1)
		}
		for _, e := range rstats.Errors {
			logger.Warn("recover", "err", e)
		}
		if rstats.SnapshotSessions+rstats.ReplaySessions > 0 || rstats.WAL.Records > 0 {
			// A session can be counted in both: restored from the snapshot
			// and then advanced by WAL replay.
			logger.Info("recovery complete",
				"snapshot_sessions", rstats.SnapshotSessions,
				"replay_sessions", rstats.ReplaySessions,
				"wal_records", rstats.WAL.Records,
				"elapsed", time.Duration(rstats.DurationNs))
		}
		if rstats.WAL.TornTail {
			logger.Warn("torn WAL tail dropped (expected after a crash)",
				"dropped_bytes", rstats.WAL.DroppedBytes)
		}
		if rstats.WAL.Corrupt {
			logger.Warn("WAL corruption before the tail",
				"dropped_bytes", rstats.WAL.DroppedBytes)
		}
		// Fold the recovered state into a fresh snapshot immediately so the
		// replayed tail is not replayed again next time.
		if *statePath != "" {
			if _, err := m.Checkpoint(*statePath); err != nil {
				logger.Error("checkpoint failed", "err", err)
			}
		}
	}

	// Background TTL sweep so idle sessions release capacity even when no
	// requests arrive. -ttl <= 0 selects the manager's 30-minute default.
	sweepEvery := *ttl / 4
	if sweepEvery <= 0 {
		sweepEvery = 30 * time.Minute / 4
	}
	go func() {
		t := time.NewTicker(sweepEvery)
		defer t.Stop()
		for range t.C {
			m.EvictExpired()
		}
	}()

	// Periodic checkpoint: atomic snapshot + WAL truncation, bounding both
	// recovery replay time and log disk usage.
	if *statePath != "" && *checkpoint > 0 {
		go func() {
			t := time.NewTicker(*checkpoint)
			defer t.Stop()
			for range t.C {
				if _, err := m.Checkpoint(*statePath); err != nil {
					logger.Error("checkpoint failed", "err", err)
				}
			}
		}()
	}

	srv := &http.Server{
		Handler: service.NewHandler(m, service.HandlerOptions{
			MaxCandidates: *maxCand,
			MaxBodyBytes:  *maxBody,
			EnableAdmin:   *admin,
			StatePath:     *statePath,
			Logger:        logger,
		}),
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		logger.Error("listen failed", "addr", *addr, "err", err)
		os.Exit(1)
	}
	var serveLn net.Listener = ln
	if sched.HasNetwork(fault.SideInbound) {
		serveLn = fault.NewListener(ln, sched, faultLogf)
	}

	done := make(chan struct{})
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		// Drain in-flight requests first, then snapshot: feedback served
		// after the snapshot would otherwise be lost from the saved state.
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		if err := srv.Shutdown(ctx); err != nil {
			logger.Error("shutdown", "err", err)
		}
		cancel()
		if *statePath != "" {
			if n, err := m.Checkpoint(*statePath); err != nil {
				logger.Error("final checkpoint failed", "err", err)
			} else {
				logger.Info("saved sessions", "count", n, "path", *statePath)
			}
		}
		if journalCloser != nil {
			if err := journalCloser.Close(); err != nil {
				logger.Error("wal close", "err", err)
			}
		}
		close(done)
	}()

	// Print the bound address (not the flag): -addr with port 0 lets test
	// harnesses pick a free port and parse it from this line.
	fmt.Printf("qfe-server: listening on %s (ttl %s, max %d sessions)\n", ln.Addr(), *ttl, *maxSessions)
	if err := srv.Serve(serveLn); err != nil && err != http.ErrServerClosed {
		logger.Error("serve failed", "err", err)
		os.Exit(1)
	}
	<-done
}
