package obs

import (
	"context"
	"fmt"
	"net/http"
	httppprof "net/http/pprof"
	"strconv"
	"strings"
)

// Handler serves the observability surface over HTTP:
//
//	/metrics                    — Prometheus text exposition of the registry
//	/debug/queries              — flight-recorder dump (slowest first), JSON
//	/debug/queries/live         — in-flight queries with live progress, JSON
//	/debug/queries/kill?id=<id> — cancel a running query (POST or GET)
//	/debug/trace/<id>           — one retained query's Chrome trace-event JSON
//	/debug/workload             — per-fingerprint workload history, JSON
//	/debug/pprof/*              — Go runtime profiles; CPU samples carry
//	                              query/fingerprint/pipeline labels
//	/query?sql=<stmt>           — execute a query via RunSQL (when wired)
//
// Registry, Recorder, Inspector, Workload and RunSQL may each be nil;
// the matching endpoints then answer 404. Every response sets an
// explicit Content-Type, and every error — unknown path, bad id,
// missing subsystem, failed query — carries a JSON body, so scrapers
// never see an empty 200. A failed /query run answers 500.
type Handler struct {
	Registry  *Registry
	Recorder  *FlightRecorder
	Inspector *Inspector
	Workload  *WorkloadStore
	// RunSQL, when non-nil, enables the /query endpoint. The callback
	// owns parsing, mode selection, and execution; it returns the result
	// row count; an error answers 500.
	RunSQL func(ctx context.Context, sql string) (rows int, err error)
}

// jsonError writes a JSON error body with the given status.
func jsonError(w http.ResponseWriter, code int, format string, args ...any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(code)
	fmt.Fprintf(w, "{\"error\":%q}\n", fmt.Sprintf(format, args...))
}

// ServeHTTP implements http.Handler.
func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch {
	case r.URL.Path == "/metrics":
		if h.Registry == nil {
			jsonError(w, http.StatusNotFound, "metrics registry not enabled")
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = h.Registry.WriteProm(w)
	case r.URL.Path == "/debug/queries":
		if h.Recorder == nil {
			jsonError(w, http.StatusNotFound, "flight recorder not enabled")
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = h.Recorder.WriteJSON(w)
	case r.URL.Path == "/debug/queries/live":
		if h.Inspector == nil {
			jsonError(w, http.StatusNotFound, "live inspector not enabled")
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = h.Inspector.WriteJSON(w)
	case r.URL.Path == "/debug/queries/kill":
		if h.Inspector == nil {
			jsonError(w, http.StatusNotFound, "live inspector not enabled")
			return
		}
		idStr := r.URL.Query().Get("id")
		id, err := strconv.ParseInt(idStr, 10, 64)
		if err != nil {
			jsonError(w, http.StatusBadRequest, "bad query id %q", idStr)
			return
		}
		if !h.Inspector.Kill(id) {
			jsonError(w, http.StatusNotFound, "query %d is not in flight", id)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		fmt.Fprintf(w, "{\"killed\":%d}\n", id)
	case r.URL.Path == "/query":
		if h.RunSQL == nil {
			jsonError(w, http.StatusNotFound, "query endpoint not enabled")
			return
		}
		sql := r.URL.Query().Get("sql")
		if sql == "" {
			jsonError(w, http.StatusBadRequest, "missing sql parameter")
			return
		}
		rows, err := h.RunSQL(r.Context(), sql)
		if err != nil {
			jsonError(w, http.StatusInternalServerError, "%s", err)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		fmt.Fprintf(w, "{\"rows\":%d}\n", rows)
	case r.URL.Path == "/debug/workload":
		if h.Workload == nil {
			jsonError(w, http.StatusNotFound, "workload history not enabled")
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = h.Workload.WriteJSON(w)
	case strings.HasPrefix(r.URL.Path, "/debug/trace/"):
		if h.Recorder == nil {
			jsonError(w, http.StatusNotFound, "flight recorder not enabled")
			return
		}
		idStr := strings.TrimPrefix(r.URL.Path, "/debug/trace/")
		id, err := strconv.ParseInt(idStr, 10, 64)
		if err != nil {
			jsonError(w, http.StatusBadRequest, "bad query id %q", idStr)
			return
		}
		rec, ok := h.Recorder.Find(id)
		if !ok || rec.Trace == nil {
			jsonError(w, http.StatusNotFound, "no retained trace for query %d", id)
			return
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		_ = rec.Trace.WriteChrome(w)
	case r.URL.Path == "/debug/pprof" || strings.HasPrefix(r.URL.Path, "/debug/pprof/"):
		// The stdlib pprof handlers set their own Content-Type (and
		// Content-Disposition for binary profiles). CPU profiles taken here
		// attribute samples per query via the executor's pprof labels.
		switch r.URL.Path {
		case "/debug/pprof/cmdline":
			httppprof.Cmdline(w, r)
		case "/debug/pprof/profile":
			httppprof.Profile(w, r)
		case "/debug/pprof/symbol":
			httppprof.Symbol(w, r)
		case "/debug/pprof/trace":
			httppprof.Trace(w, r)
		default:
			httppprof.Index(w, r)
		}
	case r.URL.Path == "/":
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "bfcbo observability endpoints:")
		fmt.Fprintln(w, "  /metrics                     Prometheus text exposition")
		fmt.Fprintln(w, "  /debug/queries               slow-query flight recorder dump")
		fmt.Fprintln(w, "  /debug/queries/live          in-flight queries with live progress")
		fmt.Fprintln(w, "  /debug/queries/kill?id=<id>  cancel a running query")
		fmt.Fprintln(w, "  /debug/trace/<id>            Chrome trace-event JSON for one query")
		fmt.Fprintln(w, "  /debug/workload              per-fingerprint workload history")
		fmt.Fprintln(w, "  /debug/pprof/                runtime profiles (query-labeled CPU samples)")
		fmt.Fprintln(w, "  /query?sql=<stmt>            execute a query (404 unless wired)")
	default:
		jsonError(w, http.StatusNotFound, "unknown path %q", r.URL.Path)
	}
}
