package benchmarks

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs all five workloads, untraced and traced, at a fiftieth of
// their size, so that tier-1 breaks when a later change alters an API the
// benchmark calls or a metric BENCHMARK.json names stops being emitted.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	if bf.RunSeconds != NominalSeconds {
		t.Errorf("BENCHMARK.json run_seconds = %d, the workloads are sized for %d", bf.RunSeconds, NominalSeconds)
	}
	if len(bf.Workloads) != len(Workloads) || len(bf.EndToEnd) != len(EndToEnd) || len(bf.PerLayer) != len(PerLayer) {
		t.Fatalf("BENCHMARK.json lists %d workloads, %d end-to-end and %d per-layer metrics; the catalogue has %d, %d and %d",
			len(bf.Workloads), len(bf.EndToEnd), len(bf.PerLayer), len(Workloads), len(EndToEnd), len(PerLayer))
	}
	for i, w := range Workloads {
		if bf.Workloads[i].Name != w.Name || bf.Workloads[i].Why != w.Why {
			t.Errorf("BENCHMARK.json workload %d is %q, the catalogue says %q", i, bf.Workloads[i].Name, w.Name)
		}
	}
	for i, d := range EndToEnd {
		if got := bf.EndToEnd[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better || got.Bound != d.Bound {
			t.Errorf("BENCHMARK.json end_to_end[%d] = %+v, the catalogue says %+v", i, got, d)
		}
	}
	for i, d := range PerLayer {
		if got := bf.PerLayer[i]; got.Name != d.Name || got.Unit != d.Unit || got.Better != d.Better {
			t.Errorf("BENCHMARK.json per_layer[%d] = %+v, the catalogue says %+v", i, got, d)
		}
	}

	dir := t.TempDir() // traces and scratch stores go here, inputs are read in place
	programs, err := filepath.Abs("programs")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Symlink(programs, filepath.Join(dir, "programs")); err != nil {
		t.Fatal(err)
	}
	for _, wl := range Workloads {
		for _, trace := range []bool{false, true} {
			name := wl.Name
			if trace {
				name += "-traced"
			}
			t.Run(name, func(t *testing.T) {
				t.Parallel() // the runs share nothing but the CPUs; timings are not asserted
				smoke(t, dir, wl.Name, trace)
			})
		}
	}
}

func smoke(t *testing.T, dir, workload string, trace bool) {
	res, err := Run(Config{Dir: dir, Workload: workload, Seed: 7, Scale: 0.02, Trace: trace})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct || res.FailedShare != 0 || res.Attempted < 1 {
		t.Errorf("failed_share %v (%d of %d): %v", res.FailedShare, res.Failed, res.Attempted, res.Notes)
	}
	defs := EndToEnd
	if trace {
		defs = PerLayer
	}
	if len(res.Metrics) != len(defs) {
		t.Errorf("%d metrics emitted, %d named", len(res.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := res.Metrics[d.Name]
		switch {
		case !nameRE.MatchString(d.Name):
			t.Errorf("metric name %q does not match %v", d.Name, nameRE)
		case !ok:
			t.Errorf("%s not emitted", d.Name)
		case m.Unit == "" || m.Unit != d.Unit:
			t.Errorf("%s has unit %q, want %q", d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("%s = %v", d.Name, m.Value)
		case !trace && m.Value <= 0:
			t.Errorf("end-to-end metric %s = %v, want > 0", d.Name, m.Value)
		}
	}
}

func TestLoadRefusesDrift(t *testing.T) {
	dir := t.TempDir()
	m, err := Load("programs")
	if err != nil {
		t.Fatal(err)
	}
	man, err := os.ReadFile("programs/" + manifestName)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dir+"/"+manifestName, man, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, p := range m.Programs {
		src := p.Source
		if p.Name == "fop" {
			src += "\n// edited\n"
		}
		if err := os.WriteFile(dir+"/"+p.File, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := Load(dir); err == nil {
		t.Fatal("Load accepted a program whose hash differs from the manifest")
	}
}
