package opt

import (
	"strings"
	"testing"

	"pea/internal/bc"
	"pea/internal/check"
	"pea/internal/ir"
	"pea/internal/obs"
)

// nopPhase changes nothing; termDrop breaks the graph by dropping the
// entry block's terminator.
type nopPhase struct{}

func (nopPhase) Name() string                { return "nop" }
func (nopPhase) Run(*ir.Graph) (bool, error) { return false, nil }

type termDrop struct{}

func (termDrop) Name() string { return "term-drop" }
func (termDrop) Run(g *ir.Graph) (bool, error) {
	g.Blocks[0].Term = nil
	return true, nil
}

// TestRunPhaseBoundary: RunPhase puts Run's boundary around one phase — the
// span, the snapshot (published even though the phase changed nothing,
// where Run publishes only changes) and, at strict level, the check whose
// violation is an event and an error carrying the phase's diff.
func TestRunPhaseBoundary(t *testing.T) {
	_, g := buildSingle(t, func(a *bc.Assembler) *bc.MethodAsm {
		c := a.Class("C", "")
		m := c.Method("m", []bc.Kind{bc.KindInt}, bc.KindInt, true)
		m.Load(0).Const(1).Add().ReturnValue()
		return m
	})
	var events []string
	sink := obs.NewSink(obs.FuncBackend(func(e *obs.Event) {
		events = append(events, e.Kind.String()+":"+e.Phase)
	}))
	sink.OnSnapshot(func(string, string, *ir.Graph) {})
	p := &Pipeline{Check: check.Strict, Sink: sink}
	if changed, err := p.RunPhase(g, nopPhase{}); changed || err != nil {
		t.Fatalf("RunPhase(nop) = %v, %v", changed, err)
	}
	p.Phases = []Phase{nopPhase{}}
	if err := p.Run(g); err != nil {
		t.Fatal(err)
	}
	want := "phase_start:nop phase_end:nop ir_snapshot:nop phase_start:nop phase_end:nop"
	if got := strings.Join(events, " "); got != want {
		t.Fatalf("events %s, want %s", got, want)
	}
	events = nil
	_, err := p.RunPhase(g, termDrop{})
	if err == nil || !strings.Contains(err.Error(), "phase term-drop broke the graph") ||
		!strings.Contains(err.Error(), "phase diff") {
		t.Fatalf("RunPhase(term-drop) error = %v, want a violation with the phase diff", err)
	}
	if last := events[len(events)-1]; last != "check_violation:term-drop" {
		t.Fatalf("last event %s, want the violation", last)
	}
}
