package stat

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"pea/internal/obs"
	"pea/internal/obs/flight"
)

// TestAnalyzeFlightDump feeds a real flight.Recorder dump through Analyze.
func TestAnalyzeFlightDump(t *testing.T) {
	r := flight.New(64)
	r.SetMethodNames([]string{"Main.main", "Main.getValue"})
	r.Record(flight.KindCompileStart, 1, -1, 20, 0, 0)
	r.Record(flight.KindCompileFinish, 1, -1, int64(2*time.Millisecond), 0, 0)
	r.Record(flight.KindCompileStart, 0, -1, 20, 0, 0)
	r.Record(flight.KindCompileFinish, 0, -1, int64(4*time.Millisecond), 0, r.Reason("cache"))
	r.Record(flight.KindDeopt, 1, 9, 0, 0, r.Reason("speculation-failed"))
	r.Record(flight.KindDeopt, 1, 9, 0, 0, r.Reason("speculation-failed"))
	r.Record(flight.KindMaterialize, 1, 0, 0, 0, r.Reason("StoreStatic"))
	r.Record(flight.KindMaterialize, 1, 0, 0, 0, r.Reason("deopt-remat"))

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	rep, err := Analyze(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FlightEvents != 8 || rep.ObsEvents != 0 {
		t.Fatalf("events = %d flight / %d obs, want 8/0", rep.FlightEvents, rep.ObsEvents)
	}
	if rep.CompileCount != 2 || rep.CompileP50 != 2*time.Millisecond || rep.CompileP99 != 4*time.Millisecond {
		t.Errorf("latency = n%d p50=%s p99=%s", rep.CompileCount, rep.CompileP50, rep.CompileP99)
	}
	if rep.CacheHits != 1 || rep.CacheMisses != 1 {
		t.Errorf("cache = %d/%d", rep.CacheHits, rep.CacheMisses)
	}
	if rep.Deopts != 2 || rep.DeoptReasons["speculation-failed"] != 2 {
		t.Errorf("deopts = %d %v", rep.Deopts, rep.DeoptReasons)
	}
	snap := rep.Escape.Snapshot()
	if len(snap) != 1 || snap[0].Site != "Main.getValue@0" ||
		snap[0].Materialized != 1 || snap[0].Remats != 1 {
		t.Errorf("escape = %+v", snap)
	}
	text := rep.Text()
	for _, want := range []string{"compiles: 2", "1/2 hits", "speculation-failed", "Main.getValue@0"} {
		if !strings.Contains(text, want) {
			t.Errorf("report text missing %q:\n%s", want, text)
		}
	}
}

// TestAnalyzeObsStream feeds an obs JSONL stream (the peavm -json format)
// through Analyze, exercising the phase-sum latency fallback and the
// broker_install cache-rate source.
func TestAnalyzeObsStream(t *testing.T) {
	var buf bytes.Buffer
	s := obs.NewSink(obs.NewJSONBackend(&buf))
	s.SetClock(func() time.Time { return time.Unix(0, 0) })

	// Two compiles of the same method: each starts with a "build" phase.
	s.PhaseStart("build", "Main.getValue", 0, 0)
	s.PhaseEnd("build", "Main.getValue", 0, 0, 10, 2, 1*time.Millisecond)
	s.PhaseEnd("pea", "Main.getValue", 10, 2, 8, 2, 2*time.Millisecond)
	s.Virtualize("Main.getValue", "o0", "Key", "v1", "Main.getValue@0")
	s.BrokerInstall("Main.getValue", "compiled")
	s.PhaseStart("build", "Main.getValue", 0, 0)
	s.PhaseEnd("build", "Main.getValue", 0, 0, 10, 2, 5*time.Millisecond)
	s.BrokerInstall("Main.getValue", "cache")
	s.VMCompile("Main.getValue", 20, obs.TriggerThreshold)
	s.VMCompile("Main.getValue", 1, obs.TriggerCacheFirst)
	s.VMCompile("Main.main@osr4", 1, obs.TriggerCacheFirst)
	s.VMDeopt("Main.getValue", "v7", "branch-mispredict")

	rep, err := Analyze(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if rep.ObsEvents == 0 || rep.FlightEvents != 0 {
		t.Fatalf("events = %d obs / %d flight", rep.ObsEvents, rep.FlightEvents)
	}
	if rep.CompileCount != 2 {
		t.Fatalf("compiles = %d, want 2 (split at build phase_start)", rep.CompileCount)
	}
	if rep.CompileP50 != 3*time.Millisecond || rep.CompileP99 != 5*time.Millisecond {
		t.Errorf("p50=%s p99=%s, want 3ms/5ms", rep.CompileP50, rep.CompileP99)
	}
	if rep.CacheHits != 1 || rep.CacheMisses != 1 {
		t.Errorf("cache = %d/%d", rep.CacheHits, rep.CacheMisses)
	}
	if rep.DeoptReasons["branch-mispredict"] != 1 {
		t.Errorf("deopt reasons = %v", rep.DeoptReasons)
	}
	if rep.Installs != 3 || rep.WarmInstalls != 2 {
		t.Errorf("installs = %d (%d warm), want 3 (2 warm)", rep.Installs, rep.WarmInstalls)
	}
	if !strings.Contains(rep.Text(), "installs: 3 (2 warm, cache-first)") {
		t.Errorf("report text missing the install line:\n%s", rep.Text())
	}
	snap := rep.Escape.Snapshot()
	if len(snap) != 1 || snap[0].Virtualized != 1 {
		t.Errorf("escape = %+v", snap)
	}
	if len(rep.Events) != rep.ObsEvents {
		t.Errorf("retained %d events, want %d", len(rep.Events), rep.ObsEvents)
	}
}

// TestAnalyzeMixedAndErrors checks mixed streams and the parse-error path.
func TestAnalyzeMixedAndErrors(t *testing.T) {
	r := flight.New(8)
	r.Record(flight.KindCompileFinish, -1, -1, 1000, 0, 0)
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	s := obs.NewSink(obs.NewJSONBackend(&buf))
	s.VMCompile("M.m", 20, obs.TriggerThreshold)

	rep, err := Analyze(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if rep.FlightEvents != 1 || rep.ObsEvents != 1 {
		t.Errorf("mixed = %d flight / %d obs, want 1/1", rep.FlightEvents, rep.ObsEvents)
	}

	if _, err := Analyze(strings.NewReader("not json\n")); err == nil {
		t.Error("invalid line did not error")
	}
	if rep, err := Analyze(strings.NewReader("\n\n")); err != nil || rep.Lines != 0 {
		t.Errorf("blank stream: rep=%+v err=%v", rep, err)
	}
}
