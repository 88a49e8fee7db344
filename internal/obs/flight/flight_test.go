package flight_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"pea/internal/bc"
	"pea/internal/obs"
	"pea/internal/obs/flight"
)

// put records one record the way the obs sink does: the next sequence
// number, then the slot.
func put(r *flight.Recorder, kind obs.Kind, method, bci int32, a int64, reason uint16) {
	r.Put(flight.Record{Seq: r.Next(), Kind: uint8(kind), Method: method, BCI: bci, A: a, Reason: reason})
}

// TestRecordZeroAlloc is the CI guard for the always-on contract: recording
// into a ring whose buffer exists must not allocate, ever — the ring stays
// attached to production VMs.
func TestRecordZeroAlloc(t *testing.T) {
	r := flight.New()
	reason := r.Reason("merge-mixed")
	put(r, obs.KindMaterialize, 3, 17, 1, reason) // the first record allocates the slots
	allocs := testing.AllocsPerRun(1000, func() {
		put(r, obs.KindMaterialize, 3, 17, 1, reason)
	})
	if allocs != 0 {
		t.Fatalf("Put allocated %.1f times per call, want 0", allocs)
	}
	// Interning an already-known reason is also allocation-free (the fast
	// path of dynamic deopt-reason recording).
	allocs = testing.AllocsPerRun(1000, func() {
		put(r, obs.KindVMDeopt, 1, 4, 0, r.Reason("merge-mixed"))
	})
	if allocs != 0 {
		t.Fatalf("Put+known Reason allocated %.1f times per call, want 0", allocs)
	}
}

// TestRecordLayout pins the slot layout the ring's memory budget assumes:
// the program tag lives in former padding, and a slot holds no pointers.
func TestRecordLayout(t *testing.T) {
	if got := unsafe.Sizeof(flight.Record{}); got != 48 {
		t.Fatalf("Record is %d bytes, want 48", got)
	}
	rt := reflect.TypeOf(flight.Record{})
	for i := 0; i < rt.NumField(); i++ {
		if k := rt.Field(i).Type.Kind(); k < reflect.Int || k > reflect.Uint64 {
			t.Fatalf("Record.%s is a %s; slots must stay plain integers", rt.Field(i).Name, k)
		}
	}
}

func TestNilRecorderInert(t *testing.T) {
	var r *flight.Recorder
	r.Put(flight.Record{Seq: 1})
	if r.Next() != 0 || r.Reason("x") != 0 || r.MethodName(0, 0) != "" || r.ReasonString(0) != "" ||
		r.Snapshot() != nil || r.Tag() != 0 {
		t.Fatal("nil recorder must be inert")
	}
	if r.Program([]string{"Main.main"}) != nil || r.HasMethodNames() {
		t.Fatal("nil recorder must derive inert views")
	}
	r.SetMethodNames([]string{"Main.main"})
	r.Release()
}

// TestSnapshotOrderAndWrap fills the ring four times over: it keeps exactly
// Capacity records, the newest, merged in sequence order.
func TestSnapshotOrderAndWrap(t *testing.T) {
	r := flight.New()
	if r.Snapshot() != nil {
		t.Fatal("an unwritten ring has records")
	}
	total := 4 * flight.Capacity
	for i := 0; i < total; i++ {
		put(r, obs.KindBrokerSubmit, -1, -1, int64(i), 0)
	}
	recs := r.Snapshot()
	if len(recs) != flight.Capacity {
		t.Fatalf("retained %d records, want %d (capacity)", len(recs), flight.Capacity)
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
	if got := recs[0].A; got != int64(total-flight.Capacity) {
		t.Fatalf("oldest record A = %d, want %d", got, total-flight.Capacity)
	}
}

func TestReasonInterningBounded(t *testing.T) {
	r := flight.New()
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
	// Flood the table past its bound (1024); later strings collapse to
	// "<other>".
	var last uint16
	for i := 0; i < 2000; i++ {
		last = r.Reason(string(rune('a'+i%26)) + string(rune('0'+i%10)) + itoa(i))
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

// TestConcurrentRecording exercises the sharded rings under the race
// detector: many goroutines recording while another snapshots, past the
// ring's capacity.
func TestConcurrentRecording(t *testing.T) {
	r := flight.New()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			reason := r.Reason("w")
			for i := 0; i < flight.Capacity/4; i++ {
				put(r, obs.KindBrokerInstall, int32(g), -1, int64(i), reason)
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
	recs := r.Snapshot()
	if len(recs) != flight.Capacity {
		t.Fatalf("retained %d records after overflow, want full capacity %d", len(recs), flight.Capacity)
	}
	// Sequence numbers are unique across shards.
	seen := make(map[uint64]bool)
	for _, rec := range recs {
		if seen[rec.Seq] {
			t.Fatalf("duplicate seq %d", rec.Seq)
		}
		seen[rec.Seq] = true
	}
}

// BenchmarkRecord: one recorded event costs tens of nanoseconds and zero
// allocations, and the VM only records at compile/deopt/OSR boundaries —
// never per bytecode or per compiled step — so steady-state hot loops pay
// nothing at all.
func BenchmarkRecord(b *testing.B) {
	r := flight.New()
	reason := r.Reason("merge-mixed")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		put(r, obs.KindMaterialize, 7, 12, int64(i), reason)
	}
}

// BenchmarkRecordParallel measures contention across broker workers.
func BenchmarkRecordParallel(b *testing.B) {
	r := flight.New()
	reason := r.Reason("merge-mixed")
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			put(r, obs.KindBrokerInstall, 3, -1, 1, reason)
		}
	})
}

func method(id int, class, name string) *bc.Method {
	return &bc.Method{ID: id, Name: name, Class: &bc.Class{Name: class}}
}

// dump returns a sink's ring dump, one line per record.
func dump(t *testing.T, s *obs.Sink) []string {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteRing(&buf); err != nil {
		t.Fatal(err)
	}
	return strings.Split(strings.TrimSpace(buf.String()), "\n")
}

// TestWriteJSONResolvesNames: a ring dump is obs events, one per record in
// sequence order, with method IDs and reason codes resolved to names.
func TestWriteJSONResolvesNames(t *testing.T) {
	s := obs.NewRing()
	s.SetMethodNames([]string{"Main.main", "Main.getValue"})
	getValue := method(1, "Main", "getValue")
	s.CompileStart(getValue, 20)
	s.BrokerInstall(getValue, "compiled", 48211)
	s.VMDeopt(getValue, 9, "speculation-failed")
	s.Materialize(nil, 0, nil, -1, 3, 2, "StoreStatic")

	var lines []obs.Event
	sc := bufio.NewScanner(strings.NewReader(strings.Join(dump(t, s), "\n")))
	for sc.Scan() {
		var e obs.Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			t.Fatalf("invalid JSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, e)
	}
	if len(lines) != 4 {
		t.Fatalf("dumped %d lines, want 4", len(lines))
	}
	if lines[0].Kind != obs.KindCompileStart || lines[0].Method != "Main.getValue" {
		t.Fatalf("line 0 = %+v, want compile_start of Main.getValue", lines[0])
	}
	if l := lines[1]; l.Kind != obs.KindBrokerInstall || l.Detail != "compiled" || l.DurationNS != 48211 {
		t.Fatalf("line 1 = %+v, want a compiled install of 48211ns", l)
	}
	if l := lines[2]; l.Kind != obs.KindVMDeopt || l.Reason != "speculation-failed" || l.Node != "v9" {
		t.Fatalf("line 2 = %+v, want deopt at v9 with reason", l)
	}
	if lines[3].Method != "" || lines[3].Reason != "StoreStatic" {
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
	root := flight.New()
	a := root.Program([]string{"A.main", "A.step"})
	b := root.Program([]string{"B.main", "B.fold"})
	if !a.HasMethodNames() || root.HasMethodNames() {
		t.Fatal("only program views carry a name table here")
	}
	if a.MethodName(a.Tag(), 1) != "A.step" || b.MethodName(b.Tag(), 1) != "B.fold" {
		t.Fatalf("views resolve %q / %q", a.MethodName(a.Tag(), 1), b.MethodName(b.Tag(), 1))
	}
	if a.Reason("cache") != b.Reason("cache") {
		t.Fatal("views must share the reason table")
	}

	sink := obs.NewRing()
	sa := sink.Program([]string{"A.main", "A.step"})
	sb := sink.Program([]string{"B.main", "B.fold"})
	second := method(1, "X", "second") // the name the views resolve ID 1 to wins
	sa.BrokerInstall(second, "cache", 10)
	sb.BrokerInstall(second, "cache", 20)
	sink.BrokerSubmit(second, 0, 0)
	lines := dump(t, sink)
	if len(lines) != 3 {
		t.Fatalf("dumped %d lines through the root view, want 3", len(lines))
	}
	if !strings.Contains(lines[0], `"method":"A.step"`) || !strings.Contains(lines[1], `"method":"B.fold"`) {
		t.Fatalf("methods resolved through the wrong table:\n%s\n%s", lines[0], lines[1])
	}
	if strings.Contains(lines[2], `"prog"`) || strings.Contains(lines[2], `"method"`) {
		t.Fatalf("root-view record gained a program: %s", lines[2])
	}

	sa.Release()
	lines = dump(t, sink)
	if strings.Contains(lines[0], `"method"`) || !strings.Contains(lines[0], `"prog":1`) {
		t.Fatalf("released program still resolves (or lost its tag): %s", lines[0])
	}
	if !strings.Contains(lines[1], `"method":"B.fold"`) {
		t.Fatalf("releasing one program disturbed another: %s", lines[1])
	}
}
