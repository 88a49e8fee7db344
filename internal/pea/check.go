package pea

import (
	"fmt"

	"pea/internal/check"
	"pea/internal/ir"
)

// checkState validates one block-boundary analysis state under strict
// checking (Config.Check, floored by PEA_CHECK). Invariants:
//   - every live object id is in range and has an info record;
//   - virtual states hold exactly numFields non-nil field values and a
//     non-negative lock depth;
//   - escaped states carry the materialized value node;
//   - field values that are themselves aliases resolve to an analyzed
//     object.
//
// It runs after every transferBlock in both the fixpoint and the emit
// phase, so a transfer function that corrupts the state is caught at the
// block where it happened, not at a deopt days later.
func (a *analyzer) checkState(b *ir.Block, st *peaState) error {
	for _, id := range st.ids() {
		os := st.objs[id]
		if int(id) >= len(a.objs) || a.objs[id] == nil {
			return fmt.Errorf("pea: state at %s: object id %d has no info record", b, id)
		}
		oi := a.objs[id]
		if os.virtual {
			if os.lockDepth < 0 {
				return fmt.Errorf("pea: state at %s: o%d has negative lock depth %d", b, id, os.lockDepth)
			}
			if len(os.fields) != oi.numFields() {
				return fmt.Errorf("pea: state at %s: o%d has %d fields, layout has %d",
					b, id, len(os.fields), oi.numFields())
			}
			for i, f := range os.fields {
				if f == nil {
					return fmt.Errorf("pea: state at %s: o%d field %d is nil", b, id, i)
				}
				if fid, ok := a.aliasOf(f); ok {
					if int(fid) >= len(a.objs) || a.objs[fid] == nil {
						return fmt.Errorf("pea: state at %s: o%d field %d aliases unknown object %d",
							b, id, i, fid)
					}
				}
			}
		} else if os.materialized == nil {
			return fmt.Errorf("pea: state at %s: escaped o%d has no materialized value", b, id)
		}
	}
	return nil
}

// checkRewrites validates the analyzer's global maps once per phase: the
// alias map resolves, and the replacement log is acyclic (resolveScalar
// walks it, so a cycle would hang the emit phase).
func (a *analyzer) checkRewrites() error {
	for n, id := range a.aliases {
		if id != noObj && (int(id) >= len(a.objs) || a.objs[id] == nil) {
			return fmt.Errorf("pea: alias v%d resolves to unknown object %d", n, id)
		}
	}
	for start, r := range a.replaced {
		for hops := 0; r != nil; hops++ {
			if r.ID == start || hops > len(a.replaced) {
				return fmt.Errorf("pea: replacement log cycles at v%d", start)
			}
			if r.ID >= len(a.replaced) {
				break
			}
			r = a.replaced[r.ID]
		}
	}
	// Every virtual object kept across a call must still hold its
	// summary license: keeping one without it would hand the callee a
	// null it could observe.
	for _, k := range a.kept {
		if a.conf.CalleeNoEscape == nil {
			return fmt.Errorf("pea: kept o%d virtual across v%d without a summary provider", k.id, k.call.ID)
		}
		safe := a.conf.CalleeNoEscape(k.call)
		if k.arg >= len(safe) || !safe[k.arg] {
			return fmt.Errorf("pea: kept o%d virtual in arg %d of v%d but the callee summary does not license it",
				k.id, k.arg, k.call.ID)
		}
	}
	return nil
}

// checkLevel returns the effective sanitizer level for this run.
func (c Config) checkLevel() check.Level { return check.Effective(c.Check) }
