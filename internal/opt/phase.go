// Package opt implements the optimization phases that Partial Escape
// Analysis depends on in the paper's system: canonicalization (constant
// folding and algebraic simplification), control-flow simplification,
// global value numbering, dead code elimination, inlining with
// devirtualization, and profile-guided speculative branch pruning (which
// introduces the deoptimization points that exercise the paper's
// FrameState machinery, §5.5).
package opt

import (
	"fmt"

	"pea/internal/budget"
	"pea/internal/check"
	"pea/internal/ir"
	"pea/internal/obs"
)

// Phase is one graph transformation.
type Phase interface {
	Name() string
	// Run transforms g in place and reports whether anything changed.
	Run(g *ir.Graph) (bool, error)
}

// maxRounds bounds full-pipeline iterations.
const maxRounds = 4

// Pipeline runs phases in order, iterating the whole sequence until a
// fixpoint or maxRounds is reached.
type Pipeline struct {
	Phases []Phase
	// Check selects the sanitizer level run after every phase. The
	// PEA_CHECK environment variable floors it, so an exported
	// PEA_CHECK=strict turns every pipeline in the process strict. At
	// check.Off (and no floor) the pipeline adds no checking work at all.
	Check check.Level
	// Budget, when non-nil, is the per-compile resource bound. The
	// pipeline polls it at every phase boundary and unwinds with a
	// structured budget error (wrapping budget.ErrBudget) when the
	// compile deadline or the IR node bound is exceeded — the cooperative
	// cancellation points of a runaway compile. nil (the default) adds a
	// single pointer test per phase.
	Budget *budget.Budget
	// Sink, when non-nil, receives phase_start/phase_end events with
	// node/block counts and wall time (an attached obs.Metrics folds them
	// into per-phase timers), and delivers per-phase IR snapshots to
	// registered snapshot consumers. A nil sink adds no
	// allocations to the compile path.
	Sink *obs.Sink
}

// Run executes the pipeline on g.
func (p *Pipeline) Run(g *ir.Graph) error {
	var method string
	if p.Sink.Traces() {
		method = g.Method.QualifiedName()
	}
	lvl := check.Effective(p.Check)
	// Failure forensics: under strict checking, keep the previous
	// phase's dump so a violation can be pinpointed as a diff. The
	// capture only happens at strict level — dumping per phase is far
	// too expensive for production pipelines.
	var before string
	if lvl >= check.Strict {
		before = ir.Dump(g)
	}
	for r := 0; r < maxRounds; r++ {
		changed := false
		for _, ph := range p.Phases {
			var span obs.PhaseSpan
			if p.Sink.Traces() {
				span = obs.StartPhase(p.Sink, ph.Name(), method, g.NumNodes(), len(g.Blocks))
			}
			c, err := ph.Run(g)
			if err != nil {
				return fmt.Errorf("opt: phase %s: %w", ph.Name(), err)
			}
			if p.Budget != nil {
				if err := p.Budget.Check(ph.Name(), budgetMethod(g), g.NumNodes()); err != nil {
					return err
				}
			}
			if p.Sink.Traces() {
				span.End(g.NumNodes(), len(g.Blocks))
				if c && p.Sink.WantSnapshots() {
					p.Sink.Snapshot(ph.Name(), method, func() string { return ir.Dump(g) })
				}
			}
			if lvl != check.Off {
				if err := check.Graph(g, lvl); err != nil {
					return p.violation(g, ph.Name(), before, err)
				}
				if lvl >= check.Strict {
					before = ir.Dump(g)
				}
			}
			changed = changed || c
		}
		if !changed {
			return nil
		}
	}
	return nil
}

// budgetMethod names g's method for budget errors. Only evaluated when a
// budget is enabled, so the disabled path allocates nothing.
func budgetMethod(g *ir.Graph) string {
	if g.Method == nil {
		return ""
	}
	return g.Method.QualifiedName()
}

// violation reports a checker failure after a phase: it emits an obs
// event and wraps the error with a before/after IR diff pinpointing what
// the phase changed (strict level only — basic has no before dump).
func (p *Pipeline) violation(g *ir.Graph, phase, before string, err error) error {
	var method string
	if g.Method != nil {
		method = g.Method.QualifiedName()
	}
	diff := ""
	if before != "" {
		diff = check.DiffDumps(before, ir.Dump(g))
	}
	p.Sink.CheckViolation(phase, method, err.Error(), diff)
	if diff != "" {
		return fmt.Errorf("opt: phase %s broke the graph: %w\nphase diff (- before, + after):\n%s",
			phase, err, diff)
	}
	return fmt.Errorf("opt: phase %s broke the graph: %w", phase, err)
}

// Standard returns the default non-speculative pipeline: canonicalize,
// simplify control flow, value-number, and eliminate dead code.
func Standard() *Pipeline {
	return &Pipeline{Phases: []Phase{
		Canonicalize{},
		SimplifyCFG{},
		GVN{},
		DCE{},
	}}
}
