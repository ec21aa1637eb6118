package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestSpanDisabledIsNil(t *testing.T) {
	Disable()
	ResetSpans()
	s := StartSpan("test/disabled")
	if s != nil {
		t.Fatal("StartSpan while disabled should return nil")
	}
	s.End() // must not panic
	RecordSpan("test/disabled2", time.Now(), time.Now())
	if got := Spans(); len(got) != 0 {
		t.Fatalf("disabled spans recorded: %d", len(got))
	}
}

func TestSpanRecordAndOrder(t *testing.T) {
	Enable()
	defer Disable()
	ResetSpans()
	base := time.Now().Add(-time.Second)
	// Record out of start order; Spans must come back timestamp-ordered.
	RecordSpan("test/second", base.Add(10*time.Millisecond), base.Add(20*time.Millisecond), Int("n", 2))
	RecordSpan("test/first", base, base.Add(5*time.Millisecond), Str("rung", "disk"))
	sp := StartSpan("test/live", Int("node", 3))
	sp.End(Str("outcome", "ok"))

	got := Spans()
	if len(got) != 3 {
		t.Fatalf("got %d spans, want 3", len(got))
	}
	if got[0].Name != "test/first" || got[1].Name != "test/second" {
		t.Fatalf("spans not timestamp-ordered: %q, %q", got[0].Name, got[1].Name)
	}
	if got[0].Duration != 5*time.Millisecond {
		t.Fatalf("recorded duration %v, want 5ms", got[0].Duration)
	}
	last := got[2]
	if last.Name != "test/live" || len(last.Attrs) != 2 {
		t.Fatalf("live span malformed: %+v", last)
	}
	if last.Attrs[0].Key != "node" || last.Attrs[0].Int != 3 || last.Attrs[1].Str != "outcome" && last.Attrs[1].Str != "ok" {
		t.Fatalf("live span attrs malformed: %+v", last.Attrs)
	}
}

func TestSpanRingBound(t *testing.T) {
	Enable()
	defer Disable()
	ResetSpans()
	base := time.Now()
	for i := 0; i < spanRingCap+100; i++ {
		RecordSpan(fmt.Sprintf("test/ring%d", i), base.Add(time.Duration(i)), base.Add(time.Duration(i+1)))
	}
	got := Spans()
	if len(got) != spanRingCap {
		t.Fatalf("ring holds %d, want %d", len(got), spanRingCap)
	}
	// Oldest 100 were overwritten.
	if got[0].Name != "test/ring100" {
		t.Fatalf("oldest retained span is %q, want test/ring100", got[0].Name)
	}
}

func TestSpansJSON(t *testing.T) {
	Enable()
	defer Disable()
	ResetSpans()
	start := time.Now()
	RecordSpan("recovery/restore", start, start.Add(3*time.Millisecond), Int("shard", 1), Str("rung", "disk"))
	body, err := SpansJSON()
	if err != nil {
		t.Fatal(err)
	}
	var out []map[string]any
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("spans.json not valid JSON: %v\n%s", err, body)
	}
	if len(out) != 1 || out[0]["name"] != "recovery/restore" {
		t.Fatalf("unexpected spans.json: %s", body)
	}
	attrs := out[0]["attrs"].(map[string]any)
	if attrs["shard"] != float64(1) || attrs["rung"] != "disk" {
		t.Fatalf("typed attrs lost: %v", attrs)
	}
	if out[0]["duration_ns"] != float64(3*time.Millisecond) {
		t.Fatalf("duration_ns = %v, want 3ms", out[0]["duration_ns"])
	}
}

func TestHandlerEndpoints(t *testing.T) {
	srv, err := Serve("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	defer Disable() // Serve enables collection

	ResetSpans()
	tCounter.Inc()
	RecordSpan("test/handler", time.Now(), time.Now().Add(time.Millisecond))

	get := func(path string) string {
		resp, err := http.Get("http://" + srv.Addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	if m := get("/metrics"); !strings.Contains(m, "test_counter_total") {
		t.Errorf("/metrics missing registered counter:\n%.400s", m)
	}
	if s := get("/spans.json"); !strings.Contains(s, "test/handler") {
		t.Errorf("/spans.json missing recorded span:\n%.400s", s)
	}
	if p := get("/debug/pprof/cmdline"); len(p) == 0 {
		t.Error("/debug/pprof/cmdline empty")
	}
}
