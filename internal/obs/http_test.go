package obs

import (
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestHandlerLiveWorkloadKill covers the PR 9 endpoints: the live view,
// the workload history, and the admin kill.
func TestHandlerLiveWorkloadKill(t *testing.T) {
	in := NewInspector()
	ws := NewWorkloadStore(0)
	killed := 0
	lq := NewLiveQuery(5, "q12", hex16(0xbeef), "BF-CBO")
	lq.AddPipeline(0, "scan lineitem", 4, new(counter).read)
	lq.OnKill(func() { killed++ })
	in.Register(lq)
	ws.Observe(WorkloadObservation{Fingerprint: 0xbeef, Label: "q12", Latency: time.Millisecond})
	h := &Handler{Inspector: in, Workload: ws}

	get := func(path string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
		return w
	}

	w := get("/debug/queries/live")
	if w.Code != 200 || !strings.HasPrefix(w.Header().Get("Content-Type"), "application/json") {
		t.Fatalf("/debug/queries/live -> %d %q", w.Code, w.Header().Get("Content-Type"))
	}
	var live struct {
		Queries []LiveSnapshot `json:"queries"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &live); err != nil || len(live.Queries) != 1 {
		t.Fatalf("live payload: %v %s", err, w.Body.String())
	}
	if q := live.Queries[0]; q.ID != 5 || q.Fingerprint != hex16(0xbeef) ||
		len(q.Pipelines) != 1 || q.Pipelines[0].MorselsPlanned != 4 {
		t.Fatalf("live snapshot wrong: %+v", live.Queries[0])
	}

	w = get("/debug/workload")
	if w.Code != 200 || !strings.HasPrefix(w.Header().Get("Content-Type"), "application/json") {
		t.Fatalf("/debug/workload -> %d %q", w.Code, w.Header().Get("Content-Type"))
	}
	var wl struct {
		Shapes  int             `json:"shapes"`
		Entries []WorkloadEntry `json:"workload"`
	}
	if err := json.Unmarshal(w.Body.Bytes(), &wl); err != nil || wl.Shapes != 1 {
		t.Fatalf("workload payload: %v %s", err, w.Body.String())
	}

	if w = get("/debug/queries/kill?id=nope"); w.Code != 400 {
		t.Fatalf("kill with bad id -> %d, want 400", w.Code)
	}
	if w = get("/debug/queries/kill?id=99"); w.Code != 404 {
		t.Fatalf("kill of unknown id -> %d, want 404", w.Code)
	}
	w = get("/debug/queries/kill?id=5")
	if w.Code != 200 || killed != 1 {
		t.Fatalf("kill -> %d (hook ran %d times), want 200/1", w.Code, killed)
	}
	if !strings.Contains(w.Body.String(), `"killed":5`) {
		t.Fatalf("kill body: %s", w.Body.String())
	}
}

// TestHandlerQueryEndpoint covers the /query wiring: success JSON,
// missing-sql 400, failures 500, unwired 404 — all with JSON bodies.
func TestHandlerQueryEndpoint(t *testing.T) {
	var nextErr error
	h := &Handler{RunSQL: func(_ context.Context, sql string) (int, error) {
		if nextErr != nil {
			return 0, nextErr
		}
		return len(sql), nil
	}}
	get := func(path string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
		return w
	}

	w := get("/query?sql=SELECT")
	if w.Code != 200 || !strings.Contains(w.Body.String(), `"rows":6`) {
		t.Fatalf("/query -> %d %s", w.Code, w.Body.String())
	}
	if w = get("/query"); w.Code != 400 {
		t.Fatalf("/query without sql -> %d, want 400", w.Code)
	}

	nextErr = errors.New("exec: something deterministic")
	if w = get("/query?sql=SELECT"); w.Code != 500 {
		t.Fatalf("failed query -> %d, want 500", w.Code)
	}
	if !strings.Contains(w.Body.String(), "deterministic") {
		t.Fatalf("failure body: %s", w.Body.String())
	}

	h.RunSQL = nil
	if w = get("/query?sql=SELECT"); w.Code != 404 {
		t.Fatalf("/query unwired -> %d, want 404", w.Code)
	}
}

// TestHandlerJSONErrors: every error response — disabled subsystem, bad
// id, unknown path — carries a JSON body and an explicit Content-Type,
// so scrapers never see an empty 200 or a bare status line.
func TestHandlerJSONErrors(t *testing.T) {
	h := &Handler{} // everything disabled
	for _, path := range []string{
		"/metrics", "/debug/queries", "/debug/queries/live",
		"/debug/queries/kill?id=1", "/debug/workload", "/debug/trace/1",
		"/completely/unknown",
	} {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
		if w.Code != 404 {
			t.Errorf("%s -> %d, want 404", path, w.Code)
		}
		if ct := w.Header().Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
			t.Errorf("%s error Content-Type = %q, want JSON", path, ct)
		}
		var body struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(w.Body.Bytes(), &body); err != nil || body.Error == "" {
			t.Errorf("%s error body not JSON: %v %s", path, err, w.Body.String())
		}
	}
}

// TestHandlerPprofAndIndex: the pprof surface and the root index are
// mounted on the same handler.
func TestHandlerPprofAndIndex(t *testing.T) {
	h := &Handler{}
	get := func(path string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		h.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
		return w
	}
	if w := get("/debug/pprof/"); w.Code != 200 || !strings.Contains(w.Body.String(), "goroutine") {
		t.Fatalf("/debug/pprof/ -> %d", w.Code)
	}
	if w := get("/debug/pprof/cmdline"); w.Code != 200 {
		t.Fatalf("/debug/pprof/cmdline -> %d", w.Code)
	}
	w := get("/")
	if w.Code != 200 || !strings.HasPrefix(w.Header().Get("Content-Type"), "text/plain") {
		t.Fatalf("/ -> %d %q", w.Code, w.Header().Get("Content-Type"))
	}
	for _, want := range []string{"/debug/queries/live", "/debug/workload", "/debug/pprof/"} {
		if !strings.Contains(w.Body.String(), want) {
			t.Fatalf("index missing %s:\n%s", want, w.Body.String())
		}
	}
}
