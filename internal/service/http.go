package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"sync"

	"qfe/internal/algebra"
	"qfe/internal/codec"
	"qfe/internal/core"
	"qfe/internal/datasets"
	"qfe/internal/db"
	"qfe/internal/feedback"
	"qfe/internal/obs"
	"qfe/internal/qbo"
	"qfe/internal/relation"
)

// HandlerOptions tunes the HTTP front-end.
type HandlerOptions struct {
	// MaxCandidates bounds candidate generation per session (0 = 32). A
	// request may ask for fewer but never more.
	MaxCandidates int
	// MaxBodyBytes bounds request bodies (0 = 64 MiB); larger requests are
	// rejected with 413 instead of buffering unboundedly.
	MaxBodyBytes int64
	// EnableAdmin exposes POST /admin/adopt — the cluster failover handoff
	// endpoint. Off by default: only router-fronted workers should accept
	// instructions to ingest another node's durable state.
	EnableAdmin bool
	// StatePath, when set with EnableAdmin, is this node's own snapshot
	// file: after adopting an estate the worker checkpoints to it, so the
	// adopted sessions are covered by this node's snapshot+WAL from then on
	// (a later failover of this node hands off self-contained state).
	StatePath string
	// Logger receives one structured access-log line per request (nil =
	// slog.Default()).
	Logger *slog.Logger
}

// NewHandler wraps a Manager in the qfe-server HTTP/JSON API:
//
//	POST   /sessions                {dataset | tables+result} -> first round
//	GET    /sessions/{id}           current round or outcome
//	POST   /sessions/{id}/feedback  {"choice": i, "seq": n} (0-based;
//	                                -1 = none; seq of the round answered)
//	DELETE /sessions/{id}           abandon
//	GET    /stats                   manager counters
//	GET    /healthz                 WAL writability + session headroom
//	POST   /admin/adopt             ingest a dead node's snapshot+WAL
//	                                (only with EnableAdmin)
//
// Routing is done by hand so the server behaves identically across Go
// versions (the 1.22 ServeMux pattern syntax is gated by go.mod version).
func NewHandler(m *Manager, opts HandlerOptions) http.Handler {
	if opts.MaxCandidates <= 0 {
		opts.MaxCandidates = 32
	}
	if opts.MaxBodyBytes <= 0 {
		opts.MaxBodyBytes = 64 << 20
	}
	h := &httpAPI{m: m, opts: opts}
	mux := http.NewServeMux()
	mux.HandleFunc("/sessions", h.sessions)
	mux.HandleFunc("/sessions/", h.session)
	mux.HandleFunc("/stats", h.stats)
	mux.HandleFunc("/healthz", h.healthz)
	mux.Handle("/metrics", obs.Handler())
	if opts.EnableAdmin {
		mux.HandleFunc("/admin/adopt", h.adopt)
	}
	return obs.Middleware(mux, obs.MiddlewareOptions{
		Routes: []string{
			"/sessions", "/sessions/{id}", "/sessions/{id}/feedback",
			"/stats", "/healthz", "/metrics", "/admin/adopt",
		},
		RouteFor:     routeFor,
		SessionIDFor: sessionIDFor,
		Logger:       opts.Logger,
	})
}

// routeFor maps a request path to its route template so per-route metrics
// stay bounded-cardinality (session ids never become label values).
func routeFor(r *http.Request) string {
	p := r.URL.Path
	switch {
	case p == "/sessions", p == "/stats", p == "/healthz", p == "/metrics",
		p == "/admin/adopt":
		return p
	case strings.HasPrefix(p, "/sessions/"):
		rest := strings.TrimPrefix(p, "/sessions/")
		if _, sub, _ := strings.Cut(rest, "/"); sub == "feedback" {
			return "/sessions/{id}/feedback"
		}
		return "/sessions/{id}"
	}
	return ""
}

// sessionIDFor extracts the session id from /sessions/{id}[...] paths for
// structured log attribution.
func sessionIDFor(r *http.Request) string {
	if rest, ok := strings.CutPrefix(r.URL.Path, "/sessions/"); ok {
		id, _, _ := strings.Cut(rest, "/")
		return id
	}
	return ""
}

type httpAPI struct {
	m    *Manager
	opts HandlerOptions
	// adoptMu serializes estate adoptions: concurrent Recover calls are
	// individually safe (merge-by-progress), but running them one at a time
	// keeps replay work and memory bounded under failover storms.
	adoptMu sync.Mutex
}

// healthz reports node health: 200 when the node can durably acknowledge
// work, 503 when the WAL is no longer writable. The body carries the
// session-count headroom either way, for load-aware routing.
func (h *httpAPI) healthz(w http.ResponseWriter, r *http.Request) {
	hs := h.m.Health()
	status := http.StatusOK
	if !hs.OK {
		status = http.StatusServiceUnavailable
	}
	writeJSON(w, status, hs)
}

// AdoptRequest is the POST /admin/adopt body: a dead node's durable estate.
// Paths are resolved on this worker's filesystem — the deployment contract
// is that per-node WAL roots and snapshots live on storage the surviving
// workers can reach (shared disk, replicated volume; in the chaos harness,
// one machine).
type AdoptRequest struct {
	StatePath string `json:"statePath,omitempty"`
	WALDir    string `json:"walDir,omitempty"`
}

// AdoptResponse summarizes what an adoption rebuilt.
type AdoptResponse struct {
	SnapshotSessions int      `json:"snapshotSessions"`
	ReplaySessions   int      `json:"replaySessions"`
	RecordsApplied   int      `json:"recordsApplied"`
	DurationNs       int64    `json:"durationNs"`
	Errors           []string `json:"errors,omitempty"`
}

// adopt ingests a dead node's snapshot + WAL into this worker: Recover
// merges the estate (by logical progress, never regressing local sessions),
// then a checkpoint folds the adopted sessions into this node's own
// durable state. Re-adoption of the same estate is idempotent, so the
// router can retry handoffs freely.
func (h *httpAPI) adopt(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, apiError{Error: "POST /admin/adopt"})
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, 1<<20)
	var req AdoptRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, fmt.Errorf("bad request body: %w", err))
		return
	}
	if req.StatePath == "" && req.WALDir == "" {
		writeErr(w, errors.New("adopt needs a statePath or walDir"))
		return
	}
	h.adoptMu.Lock()
	defer h.adoptMu.Unlock()
	rstats, err := h.m.Recover(req.StatePath, req.WALDir)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
		return
	}
	if h.opts.StatePath != "" {
		if _, err := h.m.Checkpoint(h.opts.StatePath); err != nil {
			writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
			return
		}
	}
	resp := AdoptResponse{
		SnapshotSessions: rstats.SnapshotSessions,
		ReplaySessions:   rstats.ReplaySessions,
		RecordsApplied:   rstats.RecordsApplied,
		DurationNs:       rstats.DurationNs,
	}
	for _, e := range rstats.Errors {
		resp.Errors = append(resp.Errors, e.Error())
	}
	writeJSON(w, http.StatusOK, resp)
}

// CreateRequest is the POST /sessions body. Either Dataset selects a
// built-in scenario, or Tables+Result supply the example pair — as
// structured JSON relations (codec format) or as CSV text with name:type
// headers (TablesCSV/ResultCSV), matching the qfe CLI's file format.
type CreateRequest struct {
	Dataset string `json:"dataset,omitempty"` // "demo", "scientific", "baseball", "adult"
	Target  string `json:"target,omitempty"`  // dataset query name ("Q1", ...), default first

	// SessionID, when set, names the session instead of letting the server
	// pick (the cluster router generates ids and places them by hash).
	// Creating an id that already exists returns that session's current
	// status — the idempotency that makes routed create retries safe.
	SessionID string `json:"sessionID,omitempty"`

	Tables      []codec.Relation   `json:"tables,omitempty"`
	Result      *codec.Relation    `json:"result,omitempty"`
	TablesCSV   []NamedCSV         `json:"tablesCSV,omitempty"`
	ResultCSV   string             `json:"resultCSV,omitempty"`
	PrimaryKeys []codec.Key        `json:"primaryKeys,omitempty"`
	ForeignKeys []codec.ForeignKey `json:"foreignKeys,omitempty"`

	MaxCandidates int `json:"maxCandidates,omitempty"`
}

// NamedCSV is one CSV-encoded table.
type NamedCSV struct {
	Name string `json:"name"`
	CSV  string `json:"csv"`
}

// FeedbackRequest is the POST /sessions/{id}/feedback body. Choice is a
// 0-based index into the round's results; -1 means "none of these". Seq is
// required: it names the round the choice answers (RoundJSON.Seq) and
// makes the request idempotent. Retrying after a lost acknowledgement
// returns the current status instead of double-applying, a seq beyond any
// round the server has produced is rejected with 409 (acknowledged state
// was lost — the crash-recovery detector), and a missing seq or one below 1
// with 400.
type FeedbackRequest struct {
	Choice int `json:"choice"`
	Seq    int `json:"seq"`
}

// RoundJSON is the wire form of a pending feedback round.
type RoundJSON struct {
	Seq        int              `json:"seq"`
	Iteration  int              `json:"iteration"`
	NumQueries int              `json:"numQueries"`
	Edits      []codec.CellEdit `json:"edits"`
	EditsText  string           `json:"editsText"`
	Results    []ResultJSON     `json:"results"`
}

// ResultJSON is one distinct candidate result in a round.
type ResultJSON struct {
	Result    codec.Relation `json:"result"`
	DeltaText string         `json:"deltaText"`
	Queries   []string       `json:"queries"` // SQL of the candidates producing it
}

// OutcomeJSON is the wire form of a finished session.
type OutcomeJSON struct {
	Found        bool          `json:"found"`
	Ambiguous    bool          `json:"ambiguous"`
	Query        *codec.Query  `json:"query,omitempty"`
	Remaining    []codec.Query `json:"remaining,omitempty"`
	Rounds       int           `json:"rounds"`
	TotalModCost int           `json:"totalModCost"`
}

// SessionJSON is the wire form of a session status.
type SessionJSON struct {
	ID         string       `json:"id"`
	Done       bool         `json:"done"`
	Candidates int          `json:"candidates,omitempty"`
	Round      *RoundJSON   `json:"round,omitempty"`
	Outcome    *OutcomeJSON `json:"outcome,omitempty"`
}

func encodeStatus(st Status, candidates int) SessionJSON {
	out := SessionJSON{ID: st.ID, Done: st.Done(), Candidates: candidates}
	if st.Round != nil {
		v := st.Round.View
		rj := &RoundJSON{
			Seq:        st.Round.Seq,
			Iteration:  st.Round.Iteration,
			NumQueries: len(v.Queries),
			Edits:      codec.EncodeEdits(v.Edits),
			EditsText:  feedback.FormatEdits(v.BaseDB, v.Edits),
		}
		for i, res := range v.Results {
			r := ResultJSON{
				Result:    codec.EncodeRelation(res),
				DeltaText: feedback.FormatResultDelta(v.BaseR, res),
			}
			for _, qi := range v.Groups[i] {
				r.Queries = append(r.Queries, v.Queries[qi].SQL())
			}
			rj.Results = append(rj.Results, r)
		}
		out.Round = rj
	}
	if st.Outcome != nil {
		oj := &OutcomeJSON{
			Found:        st.Outcome.Found,
			Ambiguous:    st.Outcome.Ambiguous,
			Rounds:       len(st.Outcome.Iterations),
			TotalModCost: st.Outcome.TotalModCost,
		}
		if st.Outcome.Query != nil {
			q := codec.EncodeQuery(st.Outcome.Query)
			oj.Query = &q
		}
		for _, q := range st.Outcome.Remaining {
			oj.Remaining = append(oj.Remaining, codec.EncodeQuery(q))
		}
		out.Outcome = oj
	}
	return out
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

type apiError struct {
	Error string `json:"error"`
}

func writeErr(w http.ResponseWriter, err error) {
	status := http.StatusBadRequest
	var tooBig *http.MaxBytesError
	switch {
	case errors.As(err, &tooBig):
		status = http.StatusRequestEntityTooLarge
	case errors.Is(err, ErrNotFound):
		status = http.StatusNotFound
	case errors.Is(err, ErrCapacity):
		status = http.StatusTooManyRequests
	case errors.Is(err, ErrSeqAhead):
		status = http.StatusConflict
	case errors.Is(err, ErrDead):
		status = http.StatusInternalServerError
	case errors.Is(err, ErrDegraded):
		// Read-only mode: the mutation was not applied (or not
		// acknowledged); the client should retry shortly.
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "1")
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// The caller's deadline expired before the operation was applied;
		// 503 marks the request safely retryable for proxies.
		status = http.StatusServiceUnavailable
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, apiError{Error: err.Error()})
}

// validSessionID accepts router-supplied ids: non-empty, bounded, and
// path/query safe.
func validSessionID(id string) bool {
	if id == "" || len(id) > 128 {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_', c == '.':
		default:
			return false
		}
	}
	return true
}

// sessions handles POST /sessions.
func (h *httpAPI) sessions(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeJSON(w, http.StatusMethodNotAllowed, apiError{Error: "POST /sessions"})
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, h.opts.MaxBodyBytes)
	var req CreateRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeErr(w, fmt.Errorf("bad request body: %w", err))
		return
	}
	if req.SessionID != "" && !validSessionID(req.SessionID) {
		writeErr(w, fmt.Errorf("invalid session id %q (want 1-128 chars of [A-Za-z0-9._-])", req.SessionID))
		return
	}
	d, res, err := h.examplePair(req)
	if err != nil {
		writeErr(w, err)
		return
	}
	if err := d.Validate(); err != nil {
		writeErr(w, fmt.Errorf("database constraints: %w", err))
		return
	}
	maxCand := h.opts.MaxCandidates
	if req.MaxCandidates > 0 && req.MaxCandidates < maxCand {
		maxCand = req.MaxCandidates
	}
	qcfg := qbo.DefaultConfig()
	qcfg.MaxCandidates = maxCand
	qc, err := qbo.Generate(d, res, qcfg)
	if err != nil {
		// The inputs were already validated; a generation failure is the
		// engine's fault, not the client's.
		writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
		return
	}
	if len(qc) == 0 {
		writeErr(w, errors.New("no SPJ query produces the given result on this database"))
		return
	}
	id := req.SessionID
	if id == "" {
		id = newID()
	}
	st, err := h.m.CreateWithID(r.Context(), id, d, res, qc)
	if err != nil {
		switch {
		case errors.Is(err, ErrCapacity), errors.Is(err, ErrDegraded),
			errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
			writeErr(w, err)
		default:
			writeJSON(w, http.StatusInternalServerError, apiError{Error: err.Error()})
		}
		return
	}
	writeJSON(w, http.StatusCreated, encodeStatus(st, len(qc)))
}

// examplePair resolves the (D, R) instance a create request describes.
func (h *httpAPI) examplePair(req CreateRequest) (*db.Database, *relation.Relation, error) {
	if req.Dataset != "" {
		return datasetPair(req.Dataset, req.Target)
	}
	d := db.New()
	for _, t := range req.Tables {
		rel, err := codec.DecodeRelation(t)
		if err != nil {
			return nil, nil, err
		}
		if err := d.AddTable(rel); err != nil {
			return nil, nil, err
		}
	}
	for _, t := range req.TablesCSV {
		rel, err := relation.ReadCSV(t.Name, strings.NewReader(t.CSV))
		if err != nil {
			return nil, nil, fmt.Errorf("table %s: %w", t.Name, err)
		}
		if err := d.AddTable(rel); err != nil {
			return nil, nil, err
		}
	}
	if len(d.Tables()) == 0 {
		return nil, nil, errors.New("request needs a dataset name or at least one table")
	}
	for _, pk := range req.PrimaryKeys {
		d.AddPrimaryKey(pk.Table, pk.Columns...)
	}
	for _, fk := range req.ForeignKeys {
		d.AddForeignKey(fk.ChildTable, fk.ChildColumns, fk.ParentTable, fk.ParentColumns)
	}
	var res *relation.Relation
	switch {
	case req.Result != nil:
		rel, err := codec.DecodeRelation(*req.Result)
		if err != nil {
			return nil, nil, err
		}
		res = rel
	case req.ResultCSV != "":
		rel, err := relation.ReadCSV("R", strings.NewReader(req.ResultCSV))
		if err != nil {
			return nil, nil, fmt.Errorf("result: %w", err)
		}
		res = rel
	default:
		return nil, nil, errors.New("request needs a result relation")
	}
	return d, res, nil
}

// datasetPair loads a built-in dataset and derives R by evaluating one of
// its reference queries (the named target, or the first).
func datasetPair(name, target string) (*db.Database, *relation.Relation, error) {
	var d *db.Database
	var queries []*algebra.Query
	switch strings.ToLower(name) {
	case "demo":
		return demoPair()
	case "scientific":
		s := datasets.NewScientific()
		d = s.DB
		queries = []*algebra.Query{s.Q1, s.Q2}
	case "baseball":
		b := datasets.NewBaseball()
		d = b.DB
		queries = []*algebra.Query{b.Q3, b.Q4, b.Q5, b.Q6}
	case "adult":
		a := datasets.NewAdult()
		d = a.DB
		queries = a.Targets
	default:
		return nil, nil, fmt.Errorf("unknown dataset %q (want demo, scientific, baseball or adult)", name)
	}
	if len(queries) == 0 {
		return nil, nil, fmt.Errorf("dataset %q has no reference queries", name)
	}
	q := queries[0]
	if target != "" {
		q = nil
		for _, c := range queries {
			if strings.EqualFold(c.Name, target) {
				q = c
			}
		}
		if q == nil {
			return nil, nil, fmt.Errorf("dataset %q has no query %q", name, target)
		}
	}
	res, err := q.Evaluate(d)
	if err != nil {
		return nil, nil, err
	}
	res.Name = "R"
	return d, res, nil
}

// demoPair is the paper's Example 1.1.
func demoPair() (*db.Database, *relation.Relation, error) {
	d := db.New()
	emp := relation.New("Employee", relation.NewSchema(
		"Eid", relation.KindInt, "name", relation.KindString,
		"gender", relation.KindString, "dept", relation.KindString,
		"salary", relation.KindInt))
	emp.Append(
		relation.NewTuple(1, "Alice", "F", "Sales", 3700),
		relation.NewTuple(2, "Bob", "M", "IT", 4200),
		relation.NewTuple(3, "Celina", "F", "Service", 3000),
		relation.NewTuple(4, "Darren", "M", "IT", 5000),
	)
	d.MustAddTable(emp)
	d.AddPrimaryKey("Employee", "Eid")
	r := relation.New("R", relation.NewSchema("name", relation.KindString)).
		Append(relation.NewTuple("Bob"), relation.NewTuple("Darren"))
	return d, r, nil
}

// session handles /sessions/{id} (GET, DELETE) and
// /sessions/{id}/feedback (POST).
func (h *httpAPI) session(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/sessions/")
	id, sub, _ := strings.Cut(rest, "/")
	if id == "" {
		writeErr(w, ErrNotFound)
		return
	}
	switch {
	case sub == "" && r.Method == http.MethodGet:
		st, err := h.m.Get(id)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, encodeStatus(st, 0))
	case sub == "" && r.Method == http.MethodDelete:
		if err := h.m.Abandon(id); err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]string{"status": "abandoned"})
	case sub == "feedback" && r.Method == http.MethodPost:
		r.Body = http.MaxBytesReader(w, r.Body, 1<<20)
		var req FeedbackRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeErr(w, fmt.Errorf("bad request body: %w", err))
			return
		}
		if req.Choice < core.NoneOfThese {
			writeErr(w, fmt.Errorf("choice %d out of range (-1 = none)", req.Choice))
			return
		}
		st, err := h.m.FeedbackAt(r.Context(), id, req.Seq, req.Choice)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, encodeStatus(st, 0))
	default:
		writeJSON(w, http.StatusMethodNotAllowed, apiError{Error: "unsupported method or path"})
	}
}

// stats handles GET /stats.
func (h *httpAPI) stats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, apiError{Error: "GET /stats"})
		return
	}
	writeJSON(w, http.StatusOK, h.m.Stats())
}
