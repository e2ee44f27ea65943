package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// unpairedFKBody declares a foreign key from one child column to two parent
// columns. No child row holds a reference, which once let it through
// validation into the join.
const unpairedFKBody = `{"tablesCSV":[{"name":"P","csv":"a:int,b:int\n1,2\n"},{"name":"C","csv":"x:int\n"}],` +
	`"foreignKeys":[{"childTable":"C","childColumns":["x"],"parentTable":"P","parentColumns":["a","b"]}],` +
	`"resultCSV":"a:int\n1\n"}`

// validFKBody is a two-table create with a foreign key that a session
// starts from.
const validFKBody = `{"tablesCSV":[{"name":"Dept","csv":"id:int,name:string\n1,eng\n2,ops\n"},` +
	`{"name":"Emp","csv":"eid:int,dept:int,pay:int\n1,1,100\n2,1,90\n3,2,80\n4,2,70\n"}],` +
	`"primaryKeys":[{"table":"Dept","columns":["id"]},{"table":"Emp","columns":["eid"]}],` +
	`"foreignKeys":[{"childTable":"Emp","childColumns":["dept"],"parentTable":"Dept","parentColumns":["id"]}],` +
	`"resultCSV":"eid:int\n1\n2\n"}`

// TestCreateRejectsUnpairedForeignKey checks that a create whose foreign key
// pairs one child column with two parent columns gets a 400 naming the
// constraint, where the join once panicked and the client read EOF.
func TestCreateRejectsUnpairedForeignKey(t *testing.T) {
	srv, _ := newTestServer(t)
	resp, err := http.Post(srv.URL+"/sessions", "application/json", strings.NewReader(unpairedFKBody))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body apiError
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(body.Error, "C(x) -> P(a,b)") {
		t.Errorf("create: %d %q, want 400 naming the foreign key", resp.StatusCode, body.Error)
	}
	resp, err = http.Post(srv.URL+"/sessions", "application/json", strings.NewReader(validFKBody))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Errorf("valid create: %d, want 201", resp.StatusCode)
	}
}

// FuzzCreateBody feeds arbitrary bytes to POST /sessions on a fresh
// in-memory Manager and fails on a panic or a 5xx. Bodies naming a built-in
// dataset, holding more than 4 tables or longer than 2 KB are skipped, so
// each input costs milliseconds.
func FuzzCreateBody(f *testing.F) {
	f.Add([]byte(unpairedFKBody))
	f.Add([]byte(validFKBody))
	f.Fuzz(func(t *testing.T, body []byte) {
		if len(body) > 2048 {
			return
		}
		var req CreateRequest
		if json.NewDecoder(bytes.NewReader(body)).Decode(&req) == nil &&
			(req.Dataset != "" || len(req.Tables)+len(req.TablesCSV) > 4) {
			return
		}
		h := NewHandler(New(testOptions()), HandlerOptions{})
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/sessions", bytes.NewReader(body)))
		if rec.Code >= 500 {
			t.Fatalf("create %q: %d %s", body, rec.Code, rec.Body)
		}
	})
}
