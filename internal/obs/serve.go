package obs

import (
	"encoding/json"
	"expvar"
	"net"
	"net/http"
	"net/http/pprof"
)

// Handler returns the VM's live-introspection mux, to be mounted at /debug/:
//
//	/debug/pea/flight   — the sink's ring as JSONL (same format as the
//	                      dump-on-panic files; peastat reads it)
//	/debug/pea/escape   — escape-attribution table (text; ?format=json for
//	                      the per-site records)
//	/debug/pea/metrics  — metrics registry (text table; ?format=json)
//	/debug/vars         — expvar (includes compiler_metrics after
//	                      Metrics.PublishExpvar)
//	/debug/pprof/*      — standard Go profiling endpoints
//
// Any of s, et, m may be nil; their endpoints then report 404.
func Handler(s *Sink, et *EscapeTable, m *Metrics) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pea/flight", func(w http.ResponseWriter, r *http.Request) {
		if s == nil {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/jsonl")
		_ = s.WriteRing(w)
	})
	mux.HandleFunc("/debug/pea/escape", func(w http.ResponseWriter, r *http.Request) {
		if et == nil {
			http.NotFound(w, r)
			return
		}
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(et.Snapshot())
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte(et.Table()))
	})
	mux.HandleFunc("/debug/pea/metrics", func(w http.ResponseWriter, r *http.Request) {
		if m == nil {
			http.NotFound(w, r)
			return
		}
		if r.URL.Query().Get("format") == "json" {
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(m.Snapshot())
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = w.Write([]byte(m.Snapshot().Table()))
	})
	mux.Handle("/debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve starts the introspection endpoint on addr (e.g. "localhost:6060";
// ":0" picks a free port — read it back from the returned listener). The
// server runs on a background goroutine for the life of the process; the
// caller may close the listener to stop it.
func Serve(addr string, s *Sink, et *EscapeTable, m *Metrics) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go func() { _ = http.Serve(ln, Handler(s, et, m)) }()
	return ln, nil
}
