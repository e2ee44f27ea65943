package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
)

func newTestServer(t *testing.T) (*httptest.Server, *Manager) {
	t.Helper()
	m := New(testOptions())
	srv := httptest.NewServer(NewHandler(m, HandlerOptions{}))
	t.Cleanup(srv.Close)
	return srv, m
}

func doJSON(t *testing.T, method, url string, body any, out any) (int, string) {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var raw bytes.Buffer
	if _, err := raw.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(raw.Bytes(), out); err != nil {
			t.Fatalf("decoding %q: %v", raw.String(), err)
		}
	}
	return resp.StatusCode, raw.String()
}

// TestHTTPDemoSessionEndToEnd drives the demo dataset through the full API:
// create, inspect, feed back choices until the outcome arrives.
func TestHTTPDemoSessionEndToEnd(t *testing.T) {
	srv, _ := newTestServer(t)

	var st SessionJSON
	code, raw := doJSON(t, http.MethodPost, srv.URL+"/sessions",
		CreateRequest{Dataset: "demo"}, &st)
	if code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, raw)
	}
	if st.ID == "" || st.Round == nil || st.Candidates == 0 {
		t.Fatalf("bad create response: %+v", st)
	}
	if st.Round.EditsText == "" || len(st.Round.Results) < 2 {
		t.Fatalf("round missing presentation data: %+v", st.Round)
	}

	// GET returns the same round.
	var got SessionJSON
	code, raw = doJSON(t, http.MethodGet, srv.URL+"/sessions/"+st.ID, nil, &got)
	if code != http.StatusOK || got.Round == nil || got.Round.Seq != st.Round.Seq {
		t.Fatalf("get: %d %s", code, raw)
	}

	// Always answer 0 until done (bounded: every round shrinks the set).
	for rounds := 0; !st.Done; rounds++ {
		if rounds > 64 {
			t.Fatal("session did not converge")
		}
		code, raw = doJSON(t, http.MethodPost,
			srv.URL+"/sessions/"+st.ID+"/feedback", FeedbackRequest{Choice: 0, Seq: st.Round.Seq}, &st)
		if code != http.StatusOK {
			t.Fatalf("feedback: %d %s", code, raw)
		}
	}
	if st.Outcome == nil || (!st.Outcome.Found && len(st.Outcome.Remaining) != 0) {
		t.Fatalf("bad outcome: %+v", st.Outcome)
	}

	// Stats reflect the activity.
	var stats Stats
	code, _ = doJSON(t, http.MethodGet, srv.URL+"/stats", nil, &stats)
	if code != http.StatusOK || stats.SessionsStarted != 1 || stats.RoundsServed == 0 {
		t.Fatalf("stats: %d %+v", code, stats)
	}
}

// TestHTTPCSVTables creates a session from CSV text, exactly as the curl
// quickstart in the README does.
func TestHTTPCSVTables(t *testing.T) {
	srv, _ := newTestServer(t)
	req := CreateRequest{
		TablesCSV: []NamedCSV{{
			Name: "Employee",
			CSV: "Eid:int,name:string,gender:string,dept:string,salary:int\n" +
				"1,Alice,F,Sales,3700\n2,Bob,M,IT,4200\n3,Celina,F,Service,3000\n4,Darren,M,IT,5000\n",
		}},
		ResultCSV: "name:string\nBob\nDarren\n",
	}
	var st SessionJSON
	code, raw := doJSON(t, http.MethodPost, srv.URL+"/sessions", req, &st)
	if code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, raw)
	}
	if st.Round == nil {
		t.Fatalf("no round: %+v", st)
	}
}

// TestHTTPErrors exercises the error mapping: bad dataset, missing session,
// invalid choice, missing seq, abandoned session.
func TestHTTPErrors(t *testing.T) {
	srv, _ := newTestServer(t)

	if code, _ := doJSON(t, http.MethodPost, srv.URL+"/sessions",
		CreateRequest{Dataset: "nope"}, nil); code != http.StatusBadRequest {
		t.Errorf("unknown dataset: %d", code)
	}
	if code, _ := doJSON(t, http.MethodGet, srv.URL+"/sessions/missing", nil, nil); code != http.StatusNotFound {
		t.Errorf("missing session: %d", code)
	}
	if code, _ := doJSON(t, http.MethodPost, srv.URL+"/sessions/missing/feedback",
		FeedbackRequest{Choice: 0, Seq: 1}, nil); code != http.StatusNotFound {
		t.Errorf("feedback on missing session: %d", code)
	}
	if code, _ := doJSON(t, http.MethodGet, srv.URL+"/sessions", nil, nil); code != http.StatusMethodNotAllowed {
		t.Errorf("GET /sessions: %d", code)
	}

	var st SessionJSON
	if code, raw := doJSON(t, http.MethodPost, srv.URL+"/sessions",
		CreateRequest{Dataset: "demo"}, &st); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, raw)
	}
	if code, _ := doJSON(t, http.MethodPost, srv.URL+"/sessions/"+st.ID+"/feedback",
		FeedbackRequest{Choice: 99, Seq: st.Round.Seq}, nil); code != http.StatusBadRequest {
		t.Errorf("invalid choice: %d", code)
	}
	// A body without a seq is rejected whatever its choice.
	if code, raw := doJSON(t, http.MethodPost, srv.URL+"/sessions/"+st.ID+"/feedback",
		map[string]int{"choice": 0}, nil); code != http.StatusBadRequest {
		t.Errorf("feedback without seq: %d %s", code, raw)
	}
	// Session still alive, and still at its first round, after both.
	var got SessionJSON
	if code, _ := doJSON(t, http.MethodGet, srv.URL+"/sessions/"+st.ID, nil, &got); code != http.StatusOK ||
		got.Done || got.Round.Seq != st.Round.Seq {
		t.Errorf("session should survive invalid feedback unchanged: %d %+v", code, got)
	}
	// Abandon, then 404.
	if code, _ := doJSON(t, http.MethodDelete, srv.URL+"/sessions/"+st.ID, nil, nil); code != http.StatusOK {
		t.Errorf("abandon: %d", code)
	}
	if code, _ := doJSON(t, http.MethodGet, srv.URL+"/sessions/"+st.ID, nil, nil); code != http.StatusNotFound {
		t.Errorf("get after abandon: %d", code)
	}
}

// TestHTTPCapacity maps ErrCapacity to 429.
func TestHTTPCapacity(t *testing.T) {
	opts := testOptions()
	opts.MaxSessions = 1
	m := New(opts)
	srv := httptest.NewServer(NewHandler(m, HandlerOptions{}))
	defer srv.Close()

	if code, raw := doJSON(t, http.MethodPost, srv.URL+"/sessions",
		CreateRequest{Dataset: "demo"}, nil); code != http.StatusCreated {
		t.Fatalf("first create: %d %s", code, raw)
	}
	code, _ := doJSON(t, http.MethodPost, srv.URL+"/sessions",
		CreateRequest{Dataset: "demo"}, nil)
	if code != http.StatusTooManyRequests {
		t.Errorf("second create should 429, got %d", code)
	}
}

// TestHTTPNoneOfThese: answering -1 on every round must terminate with a
// not-found outcome.
func TestHTTPNoneOfThese(t *testing.T) {
	srv, _ := newTestServer(t)
	var st SessionJSON
	if code, raw := doJSON(t, http.MethodPost, srv.URL+"/sessions",
		CreateRequest{Dataset: "demo"}, &st); code != http.StatusCreated {
		t.Fatalf("create: %d %s", code, raw)
	}
	for rounds := 0; !st.Done; rounds++ {
		if rounds > 64 {
			t.Fatal("did not terminate")
		}
		code, raw := doJSON(t, http.MethodPost,
			srv.URL+"/sessions/"+st.ID+"/feedback", FeedbackRequest{Choice: -1, Seq: st.Round.Seq}, &st)
		if code != http.StatusOK {
			t.Fatalf("feedback: %d %s", code, raw)
		}
	}
	if st.Outcome == nil || st.Outcome.Found {
		t.Fatalf("rejecting everything must end not-found: %+v", st.Outcome)
	}
}
