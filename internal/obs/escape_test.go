package obs

import (
	"strings"
	"testing"
)

// TestEscapeTableAggregation drives the aggregator with a representative
// event mix and checks per-site counts and reason bucketing.
func TestEscapeTableAggregation(t *testing.T) {
	et := NewEscapeTable()
	s := NewSink(et)

	// Site A: virtualized twice (two compiles), materialized once for an
	// escape op, once at a merge, rematerialized at deopt, locks elided.
	getValue := method(1, "Main", "getValue")
	s.Virtualize(getValue, 0, "Key", 1, nil, 0)
	s.Virtualize(getValue, 0, "Key", 1, nil, 0)
	s.Materialize(getValue, 0, getValue, 0, 9, 2, "StoreStatic")
	s.Materialize(getValue, 0, getValue, 0, -1, 4, "merge-mixed")
	s.VMRematerialize(getValue, 0, getValue, 0, "Key")
	s.LockElide(getValue, 0, 5, "monitorenter", nil, 0)
	s.LockElide(getValue, 0, 6, "monitorexit", nil, 0)
	// Site B (inlined allocation: site method differs from compiled
	// method): escapes into a non-inlined call.
	main, helperMake := method(0, "Main", "main"), method(2, "Helper", "make")
	s.Materialize(main, 1, helperMake, 3, 20, 1, "Invoke")
	s.EAVerdict(main, 2, "escapes", "call-argument", helperMake, 3)
	// Site-less event (hand-built graph): attributed to the method.
	s.Virtualize(method(0, "M", "m"), 0, "T", 1, nil, -1)

	snap := et.Snapshot()
	if len(snap) != 3 {
		t.Fatalf("got %d sites, want 3: %+v", len(snap), snap)
	}
	bySite := make(map[string]SiteStats)
	for _, s := range snap {
		bySite[s.Site] = s
	}

	a := bySite["Main.getValue@0"]
	if a.Virtualized != 2 || a.Materialized != 2 || a.Remats != 1 || a.LocksElided != 2 {
		t.Errorf("site A counts = %+v", a)
	}
	if a.Class != "Key" {
		t.Errorf("site A class = %q, want Key", a.Class)
	}
	if a.Reasons["escape-op"] != 1 || a.Reasons["merge"] != 1 || a.Reasons["deopt-remat"] != 1 {
		t.Errorf("site A reasons = %v", a.Reasons)
	}
	// Three buckets tie at 1; the dominant bucket breaks ties
	// alphabetically for determinism.
	if !strings.HasPrefix(a.DominantReason, "deopt-remat") {
		t.Errorf("site A dominant = %q", a.DominantReason)
	}

	b := bySite["Helper.make@3"]
	if b.Materialized != 1 || b.Escaped != 1 || b.Reasons["non-inlined-call"] != 1 {
		t.Errorf("site B = %+v", b)
	}
	if b.DominantReason != "non-inlined-call (Invoke)" {
		t.Errorf("site B dominant = %q", b.DominantReason)
	}

	if c := bySite["M.m"]; c.Virtualized != 1 {
		t.Errorf("site-less fallback = %+v", c)
	}

	table := et.Table()
	if !strings.Contains(table, "Main.getValue@0") || !strings.Contains(table, "TOTAL") {
		t.Errorf("table missing site or totals row:\n%s", table)
	}
	// Snapshot copies: mutating the snapshot must not leak back.
	snap[0].Reasons["poison"] = 99
	if _, ok := et.Snapshot()[0].Reasons["poison"]; ok {
		t.Error("Snapshot aliases internal reason maps")
	}
}
