package obs

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestSpanTreeStructure(t *testing.T) {
	tr := NewTrace("", 0)
	ctx := ContextWithTrace(context.Background(), tr)

	ctx, root := StartSpan(ctx, "request")
	root.Tag("path", "/v1/x")

	cctx, child := StartSpan(ctx, "solve")
	child.Tag("algorithm", "matching")
	_, grand := StartSpan(cctx, "rpc")
	grand.End()
	child.End()

	_, sib := StartSpan(ctx, "persist")
	sib.End()
	root.End()

	doc := tr.Finish()
	if doc.TraceID == "" || len(doc.TraceID) != 16 {
		t.Fatalf("trace ID = %q, want 16 hex chars", doc.TraceID)
	}
	if len(doc.Spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(doc.Spans))
	}
	byName := map[string]SpanDoc{}
	for _, sp := range doc.Spans {
		byName[sp.Name] = sp
	}
	if byName["request"].Parent != 0 {
		t.Errorf("root parent = %d, want 0", byName["request"].Parent)
	}
	if byName["solve"].Parent != byName["request"].ID {
		t.Errorf("solve parent = %d, want root %d", byName["solve"].Parent, byName["request"].ID)
	}
	if byName["rpc"].Parent != byName["solve"].ID {
		t.Errorf("rpc parent = %d, want solve %d", byName["rpc"].Parent, byName["solve"].ID)
	}
	if byName["persist"].Parent != byName["request"].ID {
		t.Errorf("persist parent = %d, want root %d", byName["persist"].Parent, byName["request"].ID)
	}
	if got := doc.RootTag("path"); got != "/v1/x" {
		t.Errorf("RootTag(path) = %q", got)
	}
	tree := doc.Tree()
	if !strings.Contains(tree, "request") || !strings.Contains(tree, "  solve") || !strings.Contains(tree, "    rpc") {
		t.Errorf("tree rendering missing indentation:\n%s", tree)
	}
}

func TestNilSpanIsNoOp(t *testing.T) {
	ctx, sp := StartSpan(context.Background(), "untraced")
	if sp != nil {
		t.Fatal("expected nil span without a trace")
	}
	sp.Tag("k", "v") // must not panic
	sp.End()
	h := http.Header{}
	Inject(ctx, h)
	if len(h) != 0 {
		t.Errorf("Inject without trace wrote headers: %v", h)
	}
}

func TestSpanCapFeedsHookAndCountsDropped(t *testing.T) {
	tr := NewTrace("cap", 2)
	var mu sync.Mutex
	seen := 0
	tr.OnSpanEnd(func(string, time.Duration) { mu.Lock(); seen++; mu.Unlock() })
	ctx := ContextWithTrace(context.Background(), tr)
	for i := 0; i < 5; i++ {
		_, sp := StartSpan(ctx, "s")
		sp.End()
	}
	doc := tr.Finish()
	if len(doc.Spans) != 2 || doc.Dropped != 3 {
		t.Fatalf("spans=%d dropped=%d, want 2/3", len(doc.Spans), doc.Dropped)
	}
	if seen != 5 {
		t.Fatalf("hook saw %d spans, want 5", seen)
	}
	if !strings.Contains(doc.Tree(), "+3 spans dropped") {
		t.Errorf("tree missing dropped marker:\n%s", doc.Tree())
	}
}

func TestConcurrentSpans(t *testing.T) {
	tr := NewTrace("", 0)
	ctx := ContextWithTrace(context.Background(), tr)
	ctx, root := StartSpan(ctx, "root")
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, sp := StartSpan(ctx, "worker")
			sp.Tag("i", i)
			sp.End()
		}(i)
	}
	wg.Wait()
	root.End()
	doc := tr.Finish()
	if len(doc.Spans) != 33 {
		t.Fatalf("got %d spans, want 33", len(doc.Spans))
	}
	ids := map[int64]bool{}
	for _, sp := range doc.Spans {
		if ids[sp.ID] {
			t.Fatalf("duplicate span id %d", sp.ID)
		}
		ids[sp.ID] = true
	}
}

func TestInjectExtractRoundTrip(t *testing.T) {
	tr := NewTrace("abcd1234abcd1234", 0)
	ctx := ContextWithTrace(context.Background(), tr)
	ctx, sp := StartSpan(ctx, "root")
	h := http.Header{}
	Inject(ctx, h)
	traceID, spanID := Extract(h)
	if traceID != "abcd1234abcd1234" {
		t.Errorf("traceID = %q", traceID)
	}
	if spanID != 1 {
		t.Errorf("spanID = %d, want 1", spanID)
	}
	sp.End()

	if id, sid := Extract(http.Header{}); id != "" || sid != 0 {
		t.Errorf("Extract(empty) = %q/%d", id, sid)
	}
}

func TestRemoteSpan(t *testing.T) {
	doc := RemoteSpan("t1", 7, "worker.vector", time.Now(), 5*time.Millisecond, Tag{Key: "corpus", Value: "c"})
	if doc.TraceID != "t1" || len(doc.Spans) != 1 || doc.Spans[0].Parent != 7 {
		t.Fatalf("unexpected remote span doc: %+v", doc)
	}
	if doc.Spans[0].DurMS < 4.9 {
		t.Errorf("dur = %v", doc.Spans[0].DurMS)
	}
}

func TestRing(t *testing.T) {
	r := NewRing(3)
	for i := 0; i < 5; i++ {
		r.Push(TraceDoc{TraceID: fmt.Sprintf("t%d", i)})
	}
	got := r.Snapshot(0)
	if len(got) != 3 {
		t.Fatalf("got %d traces, want 3", len(got))
	}
	if got[0].TraceID != "t4" || got[1].TraceID != "t3" || got[2].TraceID != "t2" {
		t.Errorf("order = %s,%s,%s, want newest-first t4,t3,t2", got[0].TraceID, got[1].TraceID, got[2].TraceID)
	}
	if got := r.Snapshot(1); len(got) != 1 || got[0].TraceID != "t4" {
		t.Errorf("Snapshot(1) = %+v", got)
	}
	var nilRing *Ring
	nilRing.Push(TraceDoc{}) // must not panic
	if nilRing.Snapshot(0) != nil {
		t.Error("nil ring snapshot should be nil")
	}
}

func TestRingDocJSON(t *testing.T) {
	tr := NewTrace("", 0)
	ctx := ContextWithTrace(context.Background(), tr)
	_, sp := StartSpan(ctx, "request")
	sp.Tag("status", 200)
	sp.End()
	buf, err := json.Marshal(tr.Finish())
	if err != nil {
		t.Fatal(err)
	}
	var back TraceDoc
	if err := json.Unmarshal(buf, &back); err != nil {
		t.Fatal(err)
	}
	if back.Spans[0].Tags[0] != (Tag{Key: "status", Value: "200"}) {
		t.Errorf("tag round-trip = %+v", back.Spans[0].Tags)
	}
}

func TestNewLogger(t *testing.T) {
	var buf bytes.Buffer
	lg, err := NewLogger(&buf, "json", "warn")
	if err != nil {
		t.Fatal(err)
	}
	lg.Info("hidden")
	lg.Warn("shown", slog.String("k", "v"))
	var line map[string]any
	if err := json.Unmarshal(buf.Bytes(), &line); err != nil {
		t.Fatalf("not one JSON line: %q (%v)", buf.String(), err)
	}
	if line["msg"] != "shown" || line["k"] != "v" {
		t.Errorf("line = %v", line)
	}

	if _, err := NewLogger(&buf, "xml", "info"); err == nil {
		t.Error("want error for unknown format")
	}
	if _, err := NewLogger(&buf, "text", "loud"); err == nil {
		t.Error("want error for unknown level")
	}
	if _, err := NewLogger(&buf, "", ""); err != nil {
		t.Errorf("defaults should parse: %v", err)
	}
}

func TestReadRuntime(t *testing.T) {
	st := ReadRuntime()
	if st.Goroutines <= 0 || st.HeapAlloc == 0 {
		t.Errorf("implausible runtime stats: %+v", st)
	}
}
