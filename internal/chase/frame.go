package chase

import (
	"sort"
	"strings"

	"repro/internal/ast"
	"repro/internal/term"
)

// Frame is the immutable variable binding a chase step or an aggregation
// contributor keeps as provenance: value i binds the i-th name of a variable
// layout whose names are sorted ascending. Layouts are interned per engine,
// so all frames of one rule share one names slice and a frame costs one
// slice of 32-byte terms — not the hash map a term.Substitution is. Frame
// implements ast.Bindings, so atoms and conditions ground through it
// directly; Substitution materializes a map for consumers that need one.
// The zero Frame binds nothing.
type Frame struct {
	vars *frameVars
	vals []term.Term
}

// frameVars is an interned variable layout: distinct names, ascending.
type frameVars struct{ names []string }

// Len returns the number of bound variables.
func (f Frame) Len() int { return len(f.vals) }

// Name returns the i-th bound variable name (names ascend with i).
func (f Frame) Name(i int) string { return f.vars.names[i] }

// Value returns the binding of the i-th variable name.
func (f Frame) Value(i int) term.Term { return f.vals[i] }

// Get returns the binding of a variable name.
func (f Frame) Get(name string) (term.Term, bool) {
	if len(f.vals) == 0 {
		return term.Term{}, false
	}
	names := f.vars.names
	lo, hi := 0, len(names)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if names[m] < name {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(names) && names[lo] == name {
		return f.vals[lo], true
	}
	return term.Term{}, false
}

// Apply resolves t under the frame: a bound variable is replaced by its
// binding; everything else is returned unchanged.
func (f Frame) Apply(t term.Term) term.Term {
	if t.IsVariable() {
		if v, ok := f.Get(t.Name()); ok {
			return v
		}
	}
	return t
}

// Substitution materializes the frame as a fresh map.
func (f Frame) Substitution() term.Substitution {
	sub := make(term.Substitution, len(f.vals))
	for i, v := range f.vals {
		sub[f.vars.names[i]] = v
	}
	return sub
}

// layoutKeyed returns the interned layout whose names, each followed by a 0
// byte, make up key. A hit allocates nothing; key may be scratch.
func (e *engine) layoutKeyed(key []byte) *frameVars {
	if v, ok := e.layouts[string(key)]; ok {
		return v
	}
	k := string(key)
	v := &frameVars{}
	if k != "" {
		v.names = strings.Split(k[:len(k)-1], "\x00")
	}
	if e.layouts == nil {
		e.layouts = map[string]*frameVars{}
	}
	e.layouts[k] = v
	return v
}

// layoutOf returns the interned layout of names, which must be distinct and
// ascending.
func (e *engine) layoutOf(names []string) *frameVars {
	buf := e.layoutBuf[:0]
	for _, n := range names {
		buf = append(append(buf, n...), 0)
	}
	e.layoutBuf = buf
	return e.layoutKeyed(buf)
}

// frameOf converts a substitution (the legacy engine's bindings) to a frame.
func (e *engine) frameOf(sub term.Substitution) Frame {
	if len(sub) == 0 {
		return Frame{}
	}
	names := e.nameBuf[:0]
	for n := range sub {
		names = append(names, n)
	}
	sort.Strings(names)
	e.nameBuf = names
	vals := make([]term.Term, len(names))
	for i, n := range names {
		vals[i] = sub[n]
	}
	return Frame{vars: e.layoutOf(names), vals: vals}
}

// withBindings returns f extended by binding names[i] to vals[i]; the names
// must not be bound in f.
func (e *engine) withBindings(f Frame, names []string, vals []term.Term) Frame {
	all := e.nameBuf[:0]
	if f.vars != nil {
		all = append(all, f.vars.names...)
	}
	out := make([]term.Term, len(f.vals), len(f.vals)+len(names))
	copy(out, f.vals)
	for j, n := range names {
		i := sort.SearchStrings(all, n)
		all = append(all, "")
		copy(all[i+1:], all[i:])
		all[i] = n
		out = append(out, term.Term{})
		copy(out[i+1:], out[i:])
		out[i] = vals[j]
	}
	e.nameBuf = all
	return Frame{vars: e.layoutOf(all), vals: out}
}

// slotLayout interns the sorted layout of the variables refs resolve and
// returns it with each sorted position's slot. A name resolved twice keeps
// its last ref, as a substitution built in ref order would.
func (e *engine) slotLayout(refs []slotRef) (*frameVars, []slotRef) {
	last := make(map[string]slotRef, len(refs))
	for _, ref := range refs {
		last[ref.name] = ref
	}
	names := make([]string, 0, len(last))
	for n := range last {
		names = append(names, n)
	}
	sort.Strings(names)
	src := make([]slotRef, len(names))
	for i, n := range names {
		src[i] = last[n]
	}
	return e.layoutOf(names), src
}

// compileFrames resolves the plan's frame layouts: the binding frame (body
// variables and assignment targets) and, for aggregation rules, the group
// frame (the group variables a binding binds).
func (e *engine) compileFrames(p *plan) {
	refs := make([]slotRef, 0, p.nslots+p.nvals)
	for i, n := range p.slotNames {
		refs = append(refs, slotRef{name: n, kind: refSlot, idx: i})
	}
	for i, n := range p.valNames {
		refs = append(refs, slotRef{name: n, kind: refVal, idx: i})
	}
	p.bindVars, p.bindSrc = e.slotLayout(refs)
	if p.rule.Aggregation != nil {
		var bound []slotRef
		for _, ref := range p.groupRefs {
			if ref.kind != refUnbound {
				bound = append(bound, ref)
			}
		}
		p.groupVars, p.groupSrc = e.slotLayout(bound)
	}
}

// slotFrame builds a frame of layout vars from a binding's id slots and
// value slots.
func slotFrame(vars *frameVars, src []slotRef, in *term.Interner, frame []term.ValueID, vals []term.Term) Frame {
	if len(src) == 0 {
		return Frame{}
	}
	out := make([]term.Term, len(src))
	for i, ref := range src {
		if ref.kind == refSlot {
			out[i] = in.Value(frame[ref.idx])
		} else {
			out[i] = vals[ref.idx]
		}
	}
	return Frame{vars: vars, vals: out}
}

// bindingFrame is the frame of one body homomorphism: every body variable
// and assignment target. Legacy bindings convert their substitution;
// compiled bindings read their slots through the plan's layout.
func (e *engine) bindingFrame(r *ast.Rule, b binding) Frame {
	if b.sub != nil {
		return e.frameOf(b.sub)
	}
	p := e.plans[r]
	return slotFrame(p.bindVars, p.bindSrc, e.store.Interner(), b.frame, b.vals)
}
