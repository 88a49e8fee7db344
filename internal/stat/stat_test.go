package stat

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"pea/internal/bc"
	"pea/internal/obs"
)

func method(id int, class, name string) *bc.Method {
	return &bc.Method{ID: id, Name: name, Class: &bc.Class{Name: class}}
}

// TestAnalyzeFlightDump feeds a real ring dump through Analyze.
func TestAnalyzeFlightDump(t *testing.T) {
	s := obs.NewRing()
	s.SetMethodNames([]string{"Main.main", "Main.getValue"})
	main, getValue := method(0, "Main", "main"), method(1, "Main", "getValue")
	s.CompileStart(getValue, 20)
	s.BrokerInstall(getValue, "compiled", 2*time.Millisecond)
	s.CompileStart(main, 20)
	s.BrokerInstall(main, "cache", 4*time.Millisecond)
	s.VMDeopt(getValue, 9, "speculation-failed")
	s.VMDeopt(getValue, 9, "speculation-failed")
	s.Materialize(getValue, 0, getValue, 0, 7, 2, "StoreStatic")
	s.VMRematerialize(getValue, 0, getValue, 0, "")

	var buf bytes.Buffer
	if err := s.WriteRing(&buf); err != nil {
		t.Fatal(err)
	}
	rep, err := Analyze(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Lines != 8 || len(rep.Events) != 8 || rep.Duplicates != 0 {
		t.Fatalf("events = %d of %d lines (%d read twice), want 8/8/0", len(rep.Events), rep.Lines, rep.Duplicates)
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

// TestAnalyzeObsStream feeds a trace (the peavm -trace-events format)
// through Analyze: compile latency and the cache rate come from the
// broker's install events, installs and deopts from the VM's.
func TestAnalyzeObsStream(t *testing.T) {
	var buf bytes.Buffer
	s := obs.NewSink(obs.NewJSONBackend(&buf))
	s.SetClock(func() time.Time { return time.Unix(0, 0) })
	getValue := method(1, "Main", "getValue")

	s.PhaseStart("build", "Main.getValue", 0, 0)
	s.PhaseEnd("build", "Main.getValue", 0, 0, 10, 2, 1*time.Millisecond)
	s.PhaseEnd("pea", "Main.getValue", 10, 2, 8, 2, 2*time.Millisecond)
	s.Virtualize(getValue, 0, "Key", 1, nil, 0)
	s.BrokerInstall(getValue, "compiled", 3*time.Millisecond)
	s.BrokerInstall(getValue, "cache", 5*time.Millisecond)
	s.VMCompile("Main.getValue", 20, obs.TriggerThreshold)
	s.VMCompile("Main.getValue", 1, obs.TriggerCacheFirst)
	s.VMCompile("Main.main@osr4", 1, obs.TriggerCacheFirst)
	s.VMDeopt(getValue, 7, "branch-mispredict")

	rep, err := Analyze(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Lines != 10 || len(rep.Events) != 10 {
		t.Fatalf("events = %d of %d lines, want 10/10", len(rep.Events), rep.Lines)
	}
	if rep.CompileCount != 2 {
		t.Fatalf("compiles = %d, want 2 (one per broker_install)", rep.CompileCount)
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
}

// TestAnalyzeMixedAndErrors checks a ring dump read beside the trace of the
// same sink — each occurrence counts once — and the parse-error path.
func TestAnalyzeMixedAndErrors(t *testing.T) {
	var trace bytes.Buffer
	s := obs.NewSink(obs.NewJSONBackend(&trace))
	s.SetMethodNames([]string{"M.m"})
	s.BrokerInstall(method(0, "M", "m"), "compiled", time.Microsecond)
	s.VMCompile("M.m", 20, obs.TriggerThreshold)
	var both bytes.Buffer
	if err := s.WriteRing(&both); err != nil {
		t.Fatal(err)
	}
	both.Write(trace.Bytes())

	rep, err := Analyze(&both)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Lines != 3 || len(rep.Events) != 2 || rep.Duplicates != 1 || rep.CompileCount != 1 {
		t.Errorf("mixed = %d events of %d lines (%d read twice), %d compiles; want 2/3/1, 1",
			len(rep.Events), rep.Lines, rep.Duplicates, rep.CompileCount)
	}

	if _, err := Analyze(strings.NewReader("not json\n")); err == nil {
		t.Error("invalid line did not error")
	}
	if _, err := Analyze(strings.NewReader(`{"seq":1,"kind":"no_such_kind"}` + "\n")); err == nil {
		t.Error("unknown kind did not error")
	}
	if _, err := Analyze(strings.NewReader(`{"seq":1}` + "\n")); err == nil {
		t.Error("line without a kind did not error")
	}
	if rep, err := Analyze(strings.NewReader("\n\n")); err != nil || rep.Lines != 0 {
		t.Errorf("blank stream: rep=%+v err=%v", rep, err)
	}
}
