package server_test

// docs_test keeps docs/API.md honest: every fenced JSON example must
// parse, the documented endpoint table must match the server's routes, the
// documented request examples must be accepted verbatim by a live server,
// the live responses must not carry fields the doc omits, and every
// documented error code must actually be producible (500 excepted — it
// needs a failing disk).

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strings"
	"testing"
	"time"

	"bundling"
	"bundling/internal/server"
)

const apiDocPath = "../../docs/API.md"

// jsonBlocks extracts the fenced ```json blocks of a markdown file.
func jsonBlocks(t *testing.T, md string) []string {
	t.Helper()
	var blocks []string
	for {
		start := strings.Index(md, "```json\n")
		if start < 0 {
			break
		}
		md = md[start+len("```json\n"):]
		end := strings.Index(md, "```")
		if end < 0 {
			t.Fatal("unterminated json block")
		}
		blocks = append(blocks, md[:end])
		md = md[end+3:]
	}
	return blocks
}

// docBlock finds the unique example block containing every marker; a
// marker prefixed "!" must be absent.
func docBlock(t *testing.T, blocks []string, markers ...string) string {
	t.Helper()
	var found []string
	for _, b := range blocks {
		ok := true
		for _, m := range markers {
			if neg, isNeg := strings.CutPrefix(m, "!"); isNeg {
				if strings.Contains(b, neg) {
					ok = false
					break
				}
			} else if !strings.Contains(b, m) {
				ok = false
				break
			}
		}
		if ok {
			found = append(found, b)
		}
	}
	if len(found) != 1 {
		t.Fatalf("%d blocks match markers %v, want exactly 1", len(found), markers)
	}
	return found[0]
}

// liveKeysDocumented asserts every top-level key of a live JSON object
// appears in the documented example object — the server must not grow
// response fields the reference omits.
func liveKeysDocumented(t *testing.T, label, liveJSON, docJSON string) {
	t.Helper()
	var live, doc map[string]json.RawMessage
	if err := json.Unmarshal([]byte(liveJSON), &live); err != nil {
		t.Fatalf("%s: live response: %v", label, err)
	}
	if err := json.Unmarshal([]byte(docJSON), &doc); err != nil {
		t.Fatalf("%s: doc example: %v", label, err)
	}
	for key := range live {
		if _, ok := doc[key]; !ok {
			t.Errorf("%s: live response field %q is not in the documented example", label, key)
		}
	}
}

func TestAPIDocMatchesServer(t *testing.T) {
	raw, err := os.ReadFile(apiDocPath)
	if err != nil {
		t.Fatalf("read %s: %v", apiDocPath, err)
	}
	md := string(raw)
	blocks := jsonBlocks(t, md)
	for i, b := range blocks {
		if !json.Valid([]byte(b)) {
			t.Errorf("json block %d does not parse:\n%s", i, b)
		}
	}

	// The documented endpoint table must list exactly the served routes.
	routeRE := regexp.MustCompile("\\| `((?:GET|POST|PATCH|DELETE) /[^`]*)` \\|")
	documented := map[string]bool{}
	for _, m := range routeRE.FindAllStringSubmatch(md, -1) {
		documented[m[1]] = true
	}
	served := []string{
		"POST /v1/corpora", "GET /v1/corpora", "GET /v1/corpora/{id}",
		"PATCH /v1/corpora/{id}", "DELETE /v1/corpora/{id}",
		"POST /v1/corpora/{id}/solve",
		"POST /v1/corpora/{id}/evaluate", "GET /v1/usage",
		"GET /healthz", "GET /metrics",
		"GET /debug/traces", "GET /debug/fleet",
	}
	if len(documented) != len(served) {
		t.Errorf("doc lists %d routes, server has %d", len(documented), len(served))
	}
	for _, r := range served {
		if !documented[r] {
			t.Errorf("route %q not documented", r)
		}
	}

	// Drive a live server with the doc's own example payloads.
	srv := server.New(server.Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	upload := docBlock(t, blocks, `"matrix"`, `"id": "shop"`)
	code, body := do(t, http.MethodPost, ts.URL+"/v1/corpora", "", upload)
	if code != http.StatusCreated {
		t.Fatalf("doc upload example: %d: %s", code, body)
	}
	liveKeysDocumented(t, "CorpusInfo", body, docBlock(t, blocks, `"created_at"`, `"total_wtp"`, `!"corpora"`, `!"applied"`))

	patchReq := docBlock(t, blocks, `"cells"`, `"if_generation"`)
	code, body = do(t, http.MethodPatch, ts.URL+"/v1/corpora/shop", "", patchReq)
	if code != http.StatusOK {
		t.Fatalf("doc patch example: %d: %s", code, body)
	}
	liveKeysDocumented(t, "MutateCorpusResponse", body, docBlock(t, blocks, `"applied"`))

	csvUpload := docBlock(t, blocks, `"format": "csv"`)
	if code, body := do(t, http.MethodPost, ts.URL+"/v1/corpora", "", csvUpload); code != http.StatusCreated {
		t.Fatalf("doc csv upload example: %d: %s", code, body)
	}

	if code, body := do(t, http.MethodGet, ts.URL+"/v1/corpora", "", ""); code != http.StatusOK {
		t.Fatalf("list: %d: %s", code, body)
	}
	if code, body := do(t, http.MethodGet, ts.URL+"/v1/corpora/shop", "", ""); code != http.StatusOK {
		t.Fatalf("info: %d: %s", code, body)
	}

	solveReq := docBlock(t, blocks, `"algorithm": "matching"`, `!"config"`)
	code, body = do(t, http.MethodPost, ts.URL+"/v1/corpora/shop/solve", "", solveReq)
	if code != http.StatusOK {
		t.Fatalf("doc solve example: %d: %s", code, body)
	}
	liveKeysDocumented(t, "SolveResponse", body, docBlock(t, blocks, `"corpus"`, `"config"`, `"algorithm"`))

	evalReq := docBlock(t, blocks, `"offers"`)
	code, body = do(t, http.MethodPost, ts.URL+"/v1/corpora/shop/evaluate", "", evalReq)
	if code != http.StatusOK {
		t.Fatalf("doc evaluate example: %d: %s", code, body)
	}
	liveKeysDocumented(t, "EvaluateResponse", body, docBlock(t, blocks, `"corpus"`, `"config"`, `!"algorithm"`))

	code, usageBody := do(t, http.MethodGet, ts.URL+"/v1/usage", "", "")
	if code != http.StatusOK {
		t.Fatalf("usage: %d: %s", code, usageBody)
	}
	liveKeysDocumented(t, "UsageResponse", usageBody, docBlock(t, blocks, `"scope"`, `"tenants"`))

	code, healthBody := do(t, http.MethodGet, ts.URL+"/healthz", "", "")
	if code != http.StatusOK {
		t.Fatalf("healthz: %d", code)
	}
	liveKeysDocumented(t, "HealthResponse", healthBody, docBlock(t, blocks, `"status"`, `"sessions"`))

	if code, _ := do(t, http.MethodGet, ts.URL+"/metrics", "", ""); code != http.StatusOK {
		t.Fatalf("metrics: %d", code)
	}
	if code, _ := do(t, http.MethodDelete, ts.URL+"/v1/corpora/shop", "", ""); code != http.StatusNoContent {
		t.Fatalf("delete: %d", code)
	}

	// The fleet view needs a coordinator; a stub Fleet hook stands in so the
	// documented response shape is still checked against a live handler.
	fsrv := server.New(server.Config{Fleet: func(ctx context.Context) server.FleetResponse {
		return server.FleetResponse{Workers: []server.FleetWorkerDoc{}, ProbeMS: 0.1}
	}})
	defer fsrv.Close()
	fts := httptest.NewServer(fsrv.Handler())
	defer fts.Close()
	code, fleetBody := do(t, http.MethodGet, fts.URL+"/debug/fleet", "", "")
	if code != http.StatusOK {
		t.Fatalf("fleet: %d: %s", code, fleetBody)
	}
	liveKeysDocumented(t, "FleetResponse", fleetBody, docBlock(t, blocks, `"probe_ms"`))
}

func TestAPIDocErrorCodesProducible(t *testing.T) {
	raw, err := os.ReadFile(apiDocPath)
	if err != nil {
		t.Fatalf("read %s: %v", apiDocPath, err)
	}
	md := string(raw)
	codeRE := regexp.MustCompile("\\| `(\\d{3})` \\|")
	documentedCodes := map[int]bool{}
	for _, m := range codeRE.FindAllStringSubmatch(md, -1) {
		var c int
		fmt.Sscanf(m[1], "%d", &c)
		documentedCodes[c] = true
	}

	produced := map[int]bool{
		// 500 is documented but needs a failing disk to produce; its path
		// is covered by code review, not this test.
		http.StatusInternalServerError: true,
	}
	record := func(label string, got, want int, body string) {
		if got != want {
			t.Errorf("%s: got %d, want %d: %s", label, got, want, body)
			return
		}
		produced[got] = true
	}

	// 400/404 on an open server.
	srv := server.New(server.Config{})
	ts := httptest.NewServer(srv.Handler())
	if err := server.Preload(srv, "c", persistMatrix(10, 4, 1), bundling.Options{}); err != nil {
		t.Fatal(err)
	}
	code, body := do(t, http.MethodPost, ts.URL+"/v1/corpora/c/solve", "", `{"algorithm":"nope"}`)
	record("bad algorithm", code, http.StatusBadRequest, body)
	code, body = do(t, http.MethodGet, ts.URL+"/v1/corpora/ghost", "", "")
	record("missing corpus", code, http.StatusNotFound, body)
	code, body = do(t, http.MethodPatch, ts.URL+"/v1/corpora/c", "",
		`{"if_generation": 99, "cells": [{"consumer": 0, "item": 0, "value": 5}]}`)
	record("stale mutation generation", code, http.StatusConflict, body)
	ts.Close()
	srv.Close()

	// 401/403 on an authenticated server.
	auth, err := server.ParseAuthKeys("alice=sk-a,bob=sk-b")
	if err != nil {
		t.Fatal(err)
	}
	asrv := server.New(server.Config{Auth: auth})
	ats := httptest.NewServer(asrv.Handler())
	code, body = do(t, http.MethodGet, ats.URL+"/v1/corpora", "", "")
	record("no key", code, http.StatusUnauthorized, body)
	up, _ := json.Marshal(server.CreateCorpusRequest{ID: "al", Matrix: bundling.NewMatrixDoc(persistMatrix(4, 2, 2))})
	code, body = do(t, http.MethodPost, ats.URL+"/v1/corpora", "sk-a", string(up))
	record("alice upload", code, http.StatusCreated, body)
	code, body = do(t, http.MethodGet, ats.URL+"/v1/corpora/al", "sk-b", "")
	record("cross tenant", code, http.StatusForbidden, body)
	ats.Close()
	asrv.Close()

	// 413 with a tiny upload bound.
	usrv := server.New(server.Config{MaxUploadBytes: 64})
	uts := httptest.NewServer(usrv.Handler())
	code, body = do(t, http.MethodPost, uts.URL+"/v1/corpora", "", string(up))
	record("oversize upload", code, http.StatusRequestEntityTooLarge, body)
	uts.Close()
	usrv.Close()

	// 429 with a one-request rate quota.
	qsrv := server.New(server.Config{Quotas: server.Quotas{RequestsPerSecond: 0.001, Burst: 1}})
	qts := httptest.NewServer(qsrv.Handler())
	if code, body := do(t, http.MethodGet, qts.URL+"/v1/corpora", "", ""); code != http.StatusOK {
		t.Fatalf("first request: %d: %s", code, body)
	}
	code, body = do(t, http.MethodGet, qts.URL+"/v1/corpora", "", "")
	record("rate quota", code, http.StatusTooManyRequests, body)
	qts.Close()
	qsrv.Close()

	// 503 with a failing readiness gate.
	dsrv := server.New(server.Config{Ready: func() error { return errors.New("worker w1 unreachable") }})
	dts := httptest.NewServer(dsrv.Handler())
	code, body = do(t, http.MethodGet, dts.URL+"/healthz", "", "")
	record("degraded health", code, http.StatusServiceUnavailable, body)
	dts.Close()
	dsrv.Close()

	// 504 with an already-expired execution budget.
	tsrv := server.New(server.Config{DefaultTimeout: time.Nanosecond, CacheEntries: -1})
	tts := httptest.NewServer(tsrv.Handler())
	if err := server.Preload(tsrv, "slow", persistMatrix(40, 6, 3), bundling.Options{}); err != nil {
		t.Fatal(err)
	}
	code, body = do(t, http.MethodPost, tts.URL+"/v1/corpora/slow/solve", "", `{"algorithm":"matching"}`)
	record("deadline budget", code, http.StatusGatewayTimeout, body)
	tts.Close()
	tsrv.Close()

	// The doc's error table and reality must list the same codes (the
	// success codes live unbackticked in the endpoint table).
	for c := range documentedCodes {
		if c >= 400 && !produced[c] {
			t.Errorf("documented status %d was not produced by any test request", c)
		}
	}
	for c := range produced {
		if c >= 400 && !documentedCodes[c] {
			t.Errorf("status %d is producible but undocumented in docs/API.md", c)
		}
	}
}
