package obs

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// TestTraceWriterChromeFormat checks that the emitted stream is one valid
// JSON array of trace_event records: phase B/E pairs, lifecycle instants,
// and one named thread lane per method.
func TestTraceWriterChromeFormat(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	s := NewSink(tw)
	s.SetClock(func() func() time.Time {
		t0 := time.Unix(0, 0)
		n := 0
		return func() time.Time { n++; return t0.Add(time.Duration(n) * time.Millisecond) }
	}())

	s.PhaseStart("build", "Main.getValue", 10, 2)
	s.PhaseEnd("build", "Main.getValue", 10, 2, 12, 2, time.Millisecond)
	s.PhaseStart("pea", "Main.getValue", 12, 2)
	s.Virtualize(method(1, "Main", "getValue"), 0, "Key", 1, nil, 0) // no trace output
	s.PhaseEnd("pea", "Main.getValue", 12, 2, 8, 2, time.Millisecond)
	s.VMCompile("Main.main", 20, TriggerThreshold)
	s.VMDeopt(method(0, "Main", "main"), 7, "speculation-failed")
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}

	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("trace is not a valid JSON array: %v\n%s", err, buf.String())
	}

	var phases []string
	lanes := make(map[string]float64) // thread_name -> tid
	instants := 0
	for _, e := range events {
		switch e["ph"] {
		case "B", "E":
			phases = append(phases, e["ph"].(string)+":"+e["name"].(string))
		case "M":
			args := e["args"].(map[string]any)
			lanes[args["name"].(string)] = e["tid"].(float64)
		case "i":
			instants++
			if e["s"] != "t" {
				t.Errorf("instant without thread scope: %v", e)
			}
		}
	}
	want := []string{"B:build", "E:build", "B:pea", "E:pea"}
	if strings.Join(phases, ",") != strings.Join(want, ",") {
		t.Errorf("phase slices = %v, want %v", phases, want)
	}
	if instants != 2 {
		t.Errorf("instants = %d, want 2 (vm_compile, vm_deopt)", instants)
	}
	if len(lanes) != 2 || lanes["Main.getValue"] == lanes["Main.main"] {
		t.Errorf("thread lanes = %v, want distinct lanes for 2 methods", lanes)
	}
	// Deopt instant carries its reason in args.
	found := false
	for _, e := range events {
		if e["name"] == "vm_deopt" {
			args := e["args"].(map[string]any)
			found = args["reason"] == "speculation-failed"
		}
	}
	if !found {
		t.Error("vm_deopt instant missing reason arg")
	}
}

// TestTraceWriterEmptyClose checks the empty-stream framing.
func TestTraceWriterEmptyClose(t *testing.T) {
	var buf bytes.Buffer
	tw := NewTraceWriter(&buf)
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	var events []any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil || len(events) != 0 {
		t.Fatalf("empty trace = %q, want []", buf.String())
	}
}

// TestHandlerEndpoints checks the introspection mux end to end against an
// httptest server: the ring as JSONL, escape table (text and JSON), metrics,
// and pprof index.
func TestHandlerEndpoints(t *testing.T) {
	et := NewEscapeTable()
	m := NewMetrics()
	s := NewSink(et)
	s.SetMetrics(m)
	s.SetMethodNames([]string{"Main.main"})
	main := method(0, "Main", "main")
	s.CompileStart(main, 20)
	s.BrokerInstall(main, "compiled", 1234)
	s.Virtualize(method(1, "Main", "getValue"), 0, "Key", 1, nil, 0)

	srv := httptest.NewServer(Handler(s, et, m))
	defer srv.Close()

	get := func(path string) (int, string) {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	if code, body := get("/debug/pea/flight"); code != 200 ||
		!strings.Contains(body, `"kind":"compile_start"`) ||
		!strings.Contains(body, `"method":"Main.main"`) {
		t.Errorf("/debug/pea/flight = %d:\n%s", code, body)
	}
	if code, body := get("/debug/pea/escape"); code != 200 ||
		!strings.Contains(body, "Main.getValue@0") || !strings.Contains(body, "TOTAL") {
		t.Errorf("/debug/pea/escape = %d:\n%s", code, body)
	}
	code, body := get("/debug/pea/escape?format=json")
	var sites []SiteStats
	if code != 200 || json.Unmarshal([]byte(body), &sites) != nil ||
		len(sites) != 1 || sites[0].Virtualized != 1 {
		t.Errorf("/debug/pea/escape?format=json = %d:\n%s", code, body)
	}
	if code, body := get("/debug/pea/metrics"); code != 200 ||
		!strings.Contains(body, KindVirtualize.String()) {
		t.Errorf("/debug/pea/metrics = %d:\n%s", code, body)
	}
	code, body = get("/debug/pea/metrics?format=json")
	var snap Snapshot
	if code != 200 || json.Unmarshal([]byte(body), &snap) != nil ||
		snap.Counters["virtualize"] != 1 || snap.Counters["broker_install"] != 1 {
		t.Errorf("/debug/pea/metrics?format=json = %d:\n%s", code, body)
	}
	if code, _ := get("/debug/pprof/"); code != 200 {
		t.Errorf("/debug/pprof/ = %d", code)
	}
	if code, _ := get("/debug/vars"); code != 200 {
		t.Errorf("/debug/vars = %d", code)
	}
	// nil receivers 404 instead of panicking.
	srv2 := httptest.NewServer(Handler(nil, nil, nil))
	defer srv2.Close()
	resp, err := srv2.Client().Get(srv2.URL + "/debug/pea/flight")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 404 {
		t.Errorf("nil flight endpoint = %d, want 404", resp.StatusCode)
	}
}
