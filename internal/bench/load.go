package bench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"
)

// LoadSource is the default tenant workload for the peaserve load harness:
// enough allocation, partial escape, and call depth that the JIT has real
// work per method, small enough that one request is dominated by
// compile-or-replay cost — which is what the harness measures.
const LoadSource = `
class Vec {
	int x;
	int y;
	Vec(int x, int y) {
		this.x = x;
		this.y = y;
	}
	Vec plus(Vec o) {
		return new Vec(this.x + o.x, this.y + o.y);
	}
	int norm1() {
		int ax = this.x;
		if (ax < 0) { ax = 0 - ax; }
		int ay = this.y;
		if (ay < 0) { ay = 0 - ay; }
		return ax + ay;
	}
}
class Main {
	static Vec leak;
	static int step(int i) {
		Vec a = new Vec(i, 0 - i);
		Vec b = new Vec(1, 2);
		Vec c = a.plus(b);
		if (i % 31 == 0) {
			Main.leak = c;
		}
		return c.norm1();
	}
	static void main() {
		int acc = 0;
		int i = 0;
		while (i < 400) {
			acc = acc + Main.step(i);
			i = i + 1;
		}
		print(acc);
	}
}
`

// LoadOptions configures one load run against a live peaserve instance.
type LoadOptions struct {
	// URL is the server base URL (e.g. "http://127.0.0.1:8377").
	URL string
	// Tenants is the number of concurrent tenant goroutines (default 8).
	Tenants int
	// Requests is how many /run requests each tenant issues (default 4).
	Requests int
	// Runs is the per-request Main.main run count (default 3: first run
	// warms the JIT, later runs execute compiled code).
	Runs int
	// Source overrides the tenant program (default LoadSource).
	Source string
	// Client overrides the HTTP client (default: 30s timeout).
	Client *http.Client
}

func (o LoadOptions) tenants() int {
	if o.Tenants > 0 {
		return o.Tenants
	}
	return 8
}

func (o LoadOptions) requests() int {
	if o.Requests > 0 {
		return o.Requests
	}
	return 4
}

func (o LoadOptions) runs() int {
	if o.Runs > 0 {
		return o.Runs
	}
	return 3
}

func (o LoadOptions) source() string {
	if o.Source != "" {
		return o.Source
	}
	return LoadSource
}

func (o LoadOptions) client() *http.Client {
	if o.Client != nil {
		return o.Client
	}
	return &http.Client{Timeout: 30 * time.Second}
}

// LoadReport is the committed output format of the load harness.
type LoadReport struct {
	Tenants  int `json:"tenants"`
	Requests int `json:"requests"` // total across tenants
	Errors   int `json:"errors"`

	// Request latency percentiles, milliseconds.
	P50Ms float64 `json:"p50_ms"`
	P90Ms float64 `json:"p90_ms"`
	P99Ms float64 `json:"p99_ms"`

	WallMs float64 `json:"wall_ms"` // whole load run

	// Server-side cache effectiveness over both tiers during this load
	// run: /stats after the run minus /stats before it, so a second run
	// against the same live server reports only its own traffic.
	HitRate          float64 `json:"hit_rate"`
	CacheHits        int64   `json:"cache_hits"`
	DiskHits         int64   `json:"disk_hits"`
	PipelineCompiles int64   `json:"pipeline_compiles"`
	// WarmInstalls counts code the request VMs installed from the shared
	// cache at first call / first back edge, before it was hot.
	WarmInstalls   int64 `json:"warm_installs"`
	StoreArtifacts int   `json:"store_artifacts"`

	// FirstError preserves one failure for the report reader (counting
	// alone buries the reason).
	FirstError string `json:"first_error,omitempty"`
}

// serverStats mirrors the fields RunLoad consumes from GET /stats (kept
// local so internal/bench does not import internal/serve: the harness
// drives any live server, in-process or another process entirely).
type serverStats struct {
	Broker struct {
		CacheHits   int64 `json:"CacheHits"`
		CacheMisses int64 `json:"CacheMisses"`
		DiskHits    int64 `json:"DiskHits"`
		Compiled    int64 `json:"Compiled"`
	} `json:"broker"`
	WarmInstalls   int64 `json:"warm_installs"`
	StoreArtifacts int   `json:"store_artifacts"`
}

// RunLoad drives a live peaserve with N concurrent tenants and reports
// request latency percentiles plus the server's cache effectiveness. It is
// the measurement half of the warm-restart story: run it once against a
// fresh store (compiles happen), restart the server, run it again — the
// second report's PipelineCompiles should be ~0 and its HitRate ~1. Run it
// twice against one live server and the second report additionally shows
// WarmInstalls: every request found its code in the memory tier.
func RunLoad(o LoadOptions) (LoadReport, error) {
	body, err := json.Marshal(map[string]any{"source": o.source(), "runs": o.runs()})
	if err != nil {
		return LoadReport{}, err
	}
	client := o.client()
	nTenants, nReq := o.tenants(), o.requests()
	before, err := fetchStats(client, o.URL)
	if err != nil {
		return LoadReport{}, fmt.Errorf("bench: reading /stats: %w", err)
	}

	type result struct {
		latency time.Duration
		err     error
	}
	results := make([]result, nTenants*nReq)
	var wg sync.WaitGroup
	start := time.Now()
	for tnt := 0; tnt < nTenants; tnt++ {
		tnt := tnt
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < nReq; r++ {
				t0 := time.Now()
				err := postRun(client, o.URL, body)
				results[tnt*nReq+r] = result{latency: time.Since(t0), err: err}
			}
		}()
	}
	wg.Wait()
	wall := time.Since(start)

	rep := LoadReport{
		Tenants:  nTenants,
		Requests: nTenants * nReq,
		WallMs:   float64(wall.Nanoseconds()) / 1e6,
	}
	lat := make([]time.Duration, 0, len(results))
	for _, r := range results {
		if r.err != nil {
			rep.Errors++
			if rep.FirstError == "" {
				rep.FirstError = r.err.Error()
			}
			continue
		}
		lat = append(lat, r.latency)
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	rep.P50Ms = percentileMs(lat, 50)
	rep.P90Ms = percentileMs(lat, 90)
	rep.P99Ms = percentileMs(lat, 99)

	st, err := fetchStats(client, o.URL)
	if err != nil {
		return rep, fmt.Errorf("bench: reading /stats: %w", err)
	}
	rep.CacheHits = st.Broker.CacheHits - before.Broker.CacheHits
	rep.DiskHits = st.Broker.DiskHits - before.Broker.DiskHits
	rep.PipelineCompiles = st.Broker.Compiled - before.Broker.Compiled
	rep.WarmInstalls = st.WarmInstalls - before.WarmInstalls
	rep.StoreArtifacts = st.StoreArtifacts
	if lookups := rep.CacheHits + st.Broker.CacheMisses - before.Broker.CacheMisses; lookups > 0 {
		rep.HitRate = float64(rep.CacheHits+rep.DiskHits) / float64(lookups)
	}
	return rep, nil
}

func postRun(client *http.Client, baseURL string, body []byte) error {
	resp, err := client.Post(baseURL+"/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("/run: %s: %s", resp.Status, bytes.TrimSpace(msg))
	}
	payload, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("/run: reading response: %w", err)
	}
	var rr struct {
		Output         []int64 `json:"output"`
		FailedCompiles int     `json:"failed_compiles"`
	}
	if err := json.Unmarshal(payload, &rr); err != nil {
		return fmt.Errorf("/run: undecodable response: %w", err)
	}
	if len(rr.Output) == 0 {
		return fmt.Errorf("/run: tenant program printed nothing")
	}
	if rr.FailedCompiles > 0 {
		return fmt.Errorf("/run: %d compiles failed server-side", rr.FailedCompiles)
	}
	return nil
}

func fetchStats(client *http.Client, baseURL string) (serverStats, error) {
	var st serverStats
	resp, err := client.Get(baseURL + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("/stats: %s", resp.Status)
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}

// percentileMs returns the p-th percentile of sorted latencies, in
// milliseconds (nearest-rank method; 0 for an empty slice).
func percentileMs(sorted []time.Duration, p int) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := (len(sorted)*p + 99) / 100
	if idx > 0 {
		idx--
	}
	return float64(sorted[idx].Nanoseconds()) / 1e6
}
