package flight

import (
	"bufio"
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

// TestRecordZeroAlloc is the CI guard for the always-on contract: recording
// an event must not allocate, ever — the recorder stays attached to
// production VMs.
func TestRecordZeroAlloc(t *testing.T) {
	r := New(64)
	reason := r.Reason("merge-mixed")
	allocs := testing.AllocsPerRun(1000, func() {
		r.Record(KindMaterialize, 3, 17, 1, 0, reason)
	})
	if allocs != 0 {
		t.Fatalf("Record allocated %.1f times per call, want 0", allocs)
	}
	// Interning an already-known reason is also allocation-free (the fast
	// path of dynamic deopt-reason recording).
	allocs = testing.AllocsPerRun(1000, func() {
		r.Record(KindDeopt, 1, 4, 0, 0, r.Reason("merge-mixed"))
	})
	if allocs != 0 {
		t.Fatalf("Record+known Reason allocated %.1f times per call, want 0", allocs)
	}
}

// TestRecordLayout pins the slot layout the ring's memory budget assumes:
// the program tag lives in former padding, and a slot holds no pointers.
func TestRecordLayout(t *testing.T) {
	if got := unsafe.Sizeof(Record{}); got != 48 {
		t.Fatalf("Record is %d bytes, want 48", got)
	}
	rt := reflect.TypeOf(Record{})
	for i := 0; i < rt.NumField(); i++ {
		if k := rt.Field(i).Type.Kind(); k < reflect.Int || k > reflect.Uint64 {
			t.Fatalf("Record.%s is a %s; slots must stay plain integers", rt.Field(i).Name, k)
		}
	}
}

func TestNilRecorderInert(t *testing.T) {
	var r *Recorder
	r.Record(KindCompileStart, 0, -1, 0, 0, 0)
	if r.Reason("x") != 0 || r.MethodName(0) != "" || r.Len() != 0 || r.Snapshot() != nil {
		t.Fatal("nil recorder must be inert")
	}
	if r.Program([]string{"Main.main"}) != nil || r.HasMethodNames() {
		t.Fatal("nil recorder must derive inert views")
	}
	r.Release()
	if err := r.WriteJSON(&bytes.Buffer{}); err != nil {
		t.Fatal(err)
	}
}

func TestSnapshotOrderAndWrap(t *testing.T) {
	r := New(shardCount * 4) // 4 slots per shard
	total := shardCount * 16 // write 4x capacity
	for i := 0; i < total; i++ {
		r.Record(KindQueueDepth, -1, -1, int64(i), 0, 0)
	}
	recs := r.Snapshot()
	if len(recs) != shardCount*4 {
		t.Fatalf("retained %d records, want %d (capacity)", len(recs), shardCount*4)
	}
	for i := 1; i < len(recs); i++ {
		if recs[i].Seq <= recs[i-1].Seq {
			t.Fatalf("snapshot not ordered by seq: %d after %d", recs[i].Seq, recs[i-1].Seq)
		}
	}
	// The ring keeps the newest events: the last record is the last write.
	if got := recs[len(recs)-1].A; got != int64(total-1) {
		t.Fatalf("newest record A = %d, want %d", got, total-1)
	}
}

func TestReasonInterningBounded(t *testing.T) {
	r := New(8)
	if r.Reason("") != 0 {
		t.Fatal("empty reason must intern to 0")
	}
	a := r.Reason("alpha")
	if b := r.Reason("alpha"); b != a {
		t.Fatalf("re-interning returned %d, want %d", b, a)
	}
	if got := r.ReasonString(a); got != "alpha" {
		t.Fatalf("ReasonString = %q, want alpha", got)
	}
	// Flood the table past its bound; later strings collapse to "<other>".
	var last uint16
	for i := 0; i < maxReasons+10; i++ {
		last = r.Reason(string(rune('a'+i%26)) + string(rune('0'+i%10)) + string(make([]byte, 0)) + itoa(i))
	}
	if last != 1 || r.ReasonString(1) != "<other>" {
		t.Fatalf("overflow reason code = %d (%q), want 1 (<other>)", last, r.ReasonString(last))
	}
}

func itoa(i int) string {
	var b [8]byte
	n := len(b)
	for {
		n--
		b[n] = byte('0' + i%10)
		i /= 10
		if i == 0 {
			return string(b[n:])
		}
	}
}

func TestWriteJSONResolvesNames(t *testing.T) {
	r := New(32)
	r.SetMethodNames([]string{"Main.main", "Main.getValue"})
	r.Record(KindCompileStart, 1, -1, 20, 0, 0)
	r.Record(KindCompileFinish, 1, -1, 48211, 0, 0)
	r.Record(KindDeopt, 1, 9, 0, 0, r.Reason("speculation-failed"))
	r.Record(KindMaterialize, -1, -1, 0, 0, r.Reason("StoreStatic"))

	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	type line struct {
		Seq    uint64 `json:"seq"`
		TNS    int64  `json:"t_ns"`
		Kind   string `json:"kind"`
		Method string `json:"method"`
		BCI    int32  `json:"bci"`
		A, B   int64
		Reason string `json:"reason"`
	}
	var lines []line
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var l line
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			t.Fatalf("invalid JSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, l)
	}
	if len(lines) != 4 {
		t.Fatalf("dumped %d lines, want 4", len(lines))
	}
	if lines[0].Kind != "compile_start" || lines[0].Method != "Main.getValue" {
		t.Fatalf("line 0 = %+v, want compile_start of Main.getValue", lines[0])
	}
	if lines[2].Kind != "deopt" || lines[2].Reason != "speculation-failed" || lines[2].BCI != 9 {
		t.Fatalf("line 2 = %+v, want deopt@9 with reason", lines[2])
	}
	if lines[3].Method != "" {
		t.Fatalf("unknown method resolved to %q, want omitted", lines[3].Method)
	}
	for i := 1; i < len(lines); i++ {
		if lines[i].Seq <= lines[i-1].Seq {
			t.Fatal("dump not seq-ordered")
		}
	}
}

// TestProgramViewsShareOneRing: two programs whose dense method IDs collide
// record into one ring through their own views; the dump resolves each
// record through its own program's table, and a released program's records
// keep their tag but lose the name.
func TestProgramViewsShareOneRing(t *testing.T) {
	root := New(64)
	a := root.Program([]string{"A.main", "A.step"})
	b := root.Program([]string{"B.main", "B.fold"})
	if !a.HasMethodNames() || root.HasMethodNames() {
		t.Fatal("only program views carry a name table here")
	}
	a.Record(KindCompileFinish, 1, -1, 10, 0, a.Reason("cache"))
	b.Record(KindCompileFinish, 1, -1, 20, 0, b.Reason("cache"))
	root.Record(KindQueueDepth, 1, -1, 0, 0, 0)
	if a.MethodName(1) != "A.step" || b.MethodName(1) != "B.fold" {
		t.Fatalf("views resolve %q / %q", a.MethodName(1), b.MethodName(1))
	}
	if a.Reason("cache") != b.Reason("cache") {
		t.Fatal("views must share the reason table")
	}

	dump := func() []string {
		var buf bytes.Buffer
		if err := root.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return strings.Split(strings.TrimSpace(buf.String()), "\n")
	}
	lines := dump()
	if len(lines) != 3 {
		t.Fatalf("dumped %d lines through the root view, want 3", len(lines))
	}
	if !strings.Contains(lines[0], `"method":"A.step"`) || !strings.Contains(lines[1], `"method":"B.fold"`) {
		t.Fatalf("methods resolved through the wrong table:\n%s\n%s", lines[0], lines[1])
	}
	if strings.Contains(lines[2], `"prog"`) || strings.Contains(lines[2], `"method"`) {
		t.Fatalf("root-view record gained a program: %s", lines[2])
	}

	a.Release()
	lines = dump()
	if strings.Contains(lines[0], `"method"`) || !strings.Contains(lines[0], `"prog":1`) {
		t.Fatalf("released program still resolves (or lost its tag): %s", lines[0])
	}
	if !strings.Contains(lines[1], `"method":"B.fold"`) {
		t.Fatalf("releasing one program disturbed another: %s", lines[1])
	}
}

// TestConcurrentRecording exercises the sharded rings under the race
// detector: many goroutines recording while another snapshots.
func TestConcurrentRecording(t *testing.T) {
	r := New(256)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			reason := r.Reason("w")
			for i := 0; i < 1000; i++ {
				r.Record(KindCompileFinish, int32(g), -1, int64(i), 0, reason)
			}
		}(g)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			r.Snapshot()
		}
	}()
	wg.Wait()
	<-done
	if r.Len() != 256 {
		t.Fatalf("retained %d records after overflow, want full capacity 256", r.Len())
	}
	// Sequence numbers are unique across shards.
	seen := make(map[uint64]bool)
	for _, rec := range r.Snapshot() {
		if seen[rec.Seq] {
			t.Fatalf("duplicate seq %d", rec.Seq)
		}
		seen[rec.Seq] = true
	}
}

// BenchmarkRecord is the overhead benchmark backing the <2% claim: one
// recorded event costs tens of nanoseconds and zero allocations, and the
// VM only records at compile/deopt/OSR boundaries — never per bytecode or
// per compiled step — so steady-state hot loops pay nothing at all.
func BenchmarkRecord(b *testing.B) {
	r := New(DefaultCapacity)
	reason := r.Reason("merge-mixed")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r.Record(KindMaterialize, 7, 12, int64(i), 0, reason)
	}
}

// BenchmarkRecordParallel measures contention across broker workers.
func BenchmarkRecordParallel(b *testing.B) {
	r := New(DefaultCapacity)
	reason := r.Reason("merge-mixed")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			r.Record(KindCompileFinish, 3, -1, 1, 0, reason)
		}
	})
}
