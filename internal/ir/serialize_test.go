package ir_test

import (
	"encoding/json"
	"strings"
	"testing"

	"pea/internal/ir"
	"pea/internal/mj"
	"pea/internal/vm"
)

const rtSrc = `
class Main {
	static void main() {
		Point p = new Point(1, 2);
		print(p.getX());
		p.move(3, 4);
		print(p.getX() + p.getY());
		Point q = new Point(5, 6);
		sink = q;
		print(q.getX());
		int[] a = new int[4];
		a[0] = 7;
		print(a[0] + a.length);
		int s = 0;
		int i = 0;
		while (i < 10) {
			s = s + i;
			i = i + 1;
		}
		print(s);
	}
	static Point sink;
}
class Point {
	int x;
	int y;
	Point(int x, int y) { this.x = x; this.y = y; }
	int getX() { return this.x; }
	int getY() { return this.y; }
	void move(int dx, int dy) { this.x = this.x + dx; this.y = this.y + dy; }
}
`

// compileAll runs the full pipeline (with PEA) over every method of a fresh
// link of src, returning the program and its scheduled graphs. PEA leaves
// FrameStates with VirtualObjectStates behind wherever an allocation stays
// virtual across a side effect, which is exactly the hard part of the
// round-trip.
func compileAll(t *testing.T, src string, mode vm.EAMode) (*vm.VM, []*ir.Graph) {
	t.Helper()
	prog, err := mj.Compile(src, "Main.main")
	if err != nil {
		t.Fatal(err)
	}
	machine := vm.New(prog, vm.Options{EA: mode})
	var gs []*ir.Graph
	for _, m := range prog.Methods {
		g, err := machine.Compile(m)
		if err != nil {
			t.Fatalf("compiling %s: %v", m.QualifiedName(), err)
		}
		gs = append(gs, g)
	}
	return machine, gs
}

// hasVirtualState reports whether any frame state in g carries a
// VirtualObjectState — the test corpus must exercise that path or the
// round-trip proof is hollow.
func hasVirtualState(g *ir.Graph) bool {
	found := false
	g.ForEachNode(func(_ *ir.Block, n *ir.Node) {
		for fs := n.FrameState; fs != nil; fs = fs.Outer {
			if len(fs.VirtualObjects) > 0 {
				found = true
			}
		}
	})
	return found
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for _, mode := range []vm.EAMode{vm.EAOff, vm.EAFlowInsensitive, vm.EAPartial} {
		machine, gs := compileAll(t, rtSrc, mode)
		anyVirtual := false
		for _, g := range gs {
			anyVirtual = anyVirtual || hasVirtualState(g)
			data, err := ir.EncodeJSON(g)
			if err != nil {
				t.Fatalf("%v/%s: encode: %v", mode, g.Method.QualifiedName(), err)
			}
			back, err := ir.DecodeJSON(data, machine.Prog)
			if err != nil {
				t.Fatalf("%v/%s: decode: %v", mode, g.Method.QualifiedName(), err)
			}
			if got, want := ir.Dump(back), ir.Dump(g); got != want {
				t.Fatalf("%v/%s: round-trip changed the graph:\n--- original\n%s\n--- decoded\n%s",
					mode, g.Method.QualifiedName(), want, got)
			}
			if back.Method != g.Method {
				t.Fatalf("%v/%s: decoded graph bound to wrong method", mode, g.Method.QualifiedName())
			}
		}
		if mode == vm.EAPartial && !anyVirtual {
			t.Fatal("PEA corpus produced no VirtualObjectStates; round-trip test lost its teeth")
		}
	}
}

// Decoding against a different link of the same source must rebind every
// entity to the new program's instances — that is what makes persisted
// artifacts shareable across processes.
func TestDecodeRebindsAcrossLinks(t *testing.T) {
	_, gs := compileAll(t, rtSrc, vm.EAPartial)
	prog2, err := mj.Compile(rtSrc, "Main.main")
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range gs {
		data, err := ir.EncodeJSON(g)
		if err != nil {
			t.Fatal(err)
		}
		back, err := ir.DecodeJSON(data, prog2)
		if err != nil {
			t.Fatalf("%s: decode against relink: %v", g.Method.QualifiedName(), err)
		}
		if got, want := ir.Dump(back), ir.Dump(g); got != want {
			t.Fatalf("%s: cross-link round-trip changed the graph:\n%s\nvs\n%s",
				g.Method.QualifiedName(), got, want)
		}
		if back.Method == g.Method {
			t.Fatalf("%s: decoded graph still bound to the original program instance",
				g.Method.QualifiedName())
		}
		if back.Method.Class == g.Method.Class {
			t.Fatalf("%s: decoded class not rebound", g.Method.QualifiedName())
		}
		back.ForEachNode(func(_ *ir.Block, n *ir.Node) {
			if n.Method != nil && n.Method.Class.Name != "" {
				if prog2.ClassByName(n.Method.Class.Name) != n.Method.Class {
					t.Fatalf("node method %s bound outside the target program", n.Method.QualifiedName())
				}
			}
		})
	}
}

// New nodes allocated on a decoded graph must not collide with decoded IDs.
func TestDecodeRestoresIDCounters(t *testing.T) {
	machine, gs := compileAll(t, rtSrc, vm.EAPartial)
	for _, g := range gs {
		data, err := ir.EncodeJSON(g)
		if err != nil {
			t.Fatal(err)
		}
		back, err := ir.DecodeJSON(data, machine.Prog)
		if err != nil {
			t.Fatal(err)
		}
		ids := make(map[int]bool)
		back.ForEachNode(func(_ *ir.Block, n *ir.Node) { ids[n.ID] = true })
		fresh := back.NewNode(ir.OpConst, 0)
		if ids[fresh.ID] {
			t.Fatalf("%s: fresh node reused decoded id v%d", g.Method.QualifiedName(), fresh.ID)
		}
		nb := back.NewBlock()
		for _, b := range back.Blocks[:len(back.Blocks)-1] {
			if b.ID == nb.ID {
				t.Fatalf("%s: fresh block reused decoded id b%d", g.Method.QualifiedName(), nb.ID)
			}
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	machine, gs := compileAll(t, rtSrc, vm.EAPartial)
	g := gs[0]
	data, err := ir.EncodeJSON(g)
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		mutate func([]byte) []byte
	}{
		{"truncated", func(b []byte) []byte { return b[:len(b)/2] }},
		{"not-json", func(b []byte) []byte { return []byte("{{nope") }},
		{"unknown-class", func(b []byte) []byte {
			return []byte(strings.ReplaceAll(string(b), `"Point`, `"Pointless`))
		}},
		{"unknown-op", func(b []byte) []byte {
			return []byte(strings.ReplaceAll(string(b), `"op":"Const"`, `"op":"Cromulent"`))
		}},
		{"dangling-node-ref", func(b []byte) []byte {
			var m map[string]any
			if err := json.Unmarshal(b, &m); err != nil {
				t.Fatal(err)
			}
			blocks := m["blocks"].([]any)
			blocks[0].(map[string]any)["term"] = float64(999999)
			out, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}},
		{"huge-id-counter", func(b []byte) []byte {
			return []byte(strings.Replace(string(b), `"nextNodeID":`, `"nextNodeID":1000000000`, 1))
		}},
		{"huge-node-id", func(b []byte) []byte {
			return []byte(strings.Replace(string(b), `"nodes":[{"id":`, `"nodes":[{"id":1000000000`, 1))
		}},
		{"negative-block-id", func(b []byte) []byte {
			return []byte(strings.Replace(string(b), `"blocks":[{"id":0`, `"blocks":[{"id":-7`, 1))
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ir.DecodeJSON(tc.mutate(append([]byte(nil), data...)), machine.Prog); err == nil {
				t.Fatalf("%s: corrupt payload decoded without error", tc.name)
			}
		})
	}
}
