package server

import (
	"net/http"
	"net/http/pprof"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"

	"bundling/internal/obs"
)

// TracesResponse is the GET /debug/traces payload: recent traces, newest
// first.
type TracesResponse struct {
	Traces []obs.TraceDoc `json:"traces"`
}

// handleTraces serves the recent-trace ring. ?limit=N bounds the reply;
// with tracing disabled the list is empty. Auth-guarded like /v1: traces
// carry corpus IDs and request shapes, which are tenant data.
func (s *Server) handleTraces(w http.ResponseWriter, r *http.Request) {
	limit := 0
	if q := r.URL.Query().Get("limit"); q != "" {
		n, err := strconv.Atoi(q)
		if err != nil || n <= 0 {
			s.fail(w, http.StatusBadRequest, "limit: want a positive integer, got %q", q)
			return
		}
		limit = n
	}
	docs := s.traces.Snapshot(limit)
	if docs == nil {
		docs = []obs.TraceDoc{}
	}
	writeJSON(w, http.StatusOK, TracesResponse{Traces: docs})
}

// RegisterPprof mounts the net/http/pprof profiling handlers on mux under
// /debug/pprof — shared by the server (Config.Pprof) and the bundleworker
// daemon (-pprof).
func RegisterPprof(mux *http.ServeMux) {
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// buildInfo reports the binary's Go toolchain version, main-module version
// and VCS revision (empty when unstamped), read once.
func buildInfo() (goVersion, modVersion, revision string) {
	buildInfoOnce.Do(func() {
		buildGoVersion = runtime.Version()
		bi, ok := debug.ReadBuildInfo()
		if !ok {
			return
		}
		if bi.GoVersion != "" {
			buildGoVersion = bi.GoVersion
		}
		if v := bi.Main.Version; v != "" && v != "(devel)" {
			buildModVersion = v
		}
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				buildRevision = kv.Value
			}
		}
	})
	return buildGoVersion, buildModVersion, buildRevision
}

var (
	buildInfoOnce   sync.Once
	buildGoVersion  string
	buildModVersion string
	buildRevision   string
)
