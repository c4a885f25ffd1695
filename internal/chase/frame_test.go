package chase

import (
	"testing"

	"repro/internal/term"
)

func frameSubs() []term.Substitution {
	return []term.Substitution{
		{},
		{"X": term.Str("a")},
		{"X": term.Str("a"), "Y": term.Int(3), "S": term.Float(0.5)},
		{"Z": term.Null("z1"), "A": term.Bool(true), "M": term.Float(3), "B": term.Str("")},
		{"TS": term.Float(0.61), "X": term.Str("N0"), "Y": term.Str("N9"), "Z": term.Str("N8"), "S": term.Float(0.6), "": term.Int(-1)},
	}
}

// TestFrameGetMatchesSubstitution: a frame answers every lookup exactly as
// the substitution it was built from, including names it does not bind
// (before, between and after its sorted names), and materializes back to
// that substitution.
func TestFrameGetMatchesSubstitution(t *testing.T) {
	e := &engine{}
	probes := []string{"", "0", "A", "AA", "B", "C", "M", "N", "S", "T", "TS", "TT", "X", "Y", "Z", "ZZ", "a"}
	for _, sub := range frameSubs() {
		f := e.frameOf(sub)
		if f.Len() != len(sub) {
			t.Fatalf("%v: Len() = %d", sub, f.Len())
		}
		for i := 1; i < f.Len(); i++ {
			if f.Name(i-1) >= f.Name(i) {
				t.Fatalf("%v: names not ascending at %d: %q, %q", sub, i, f.Name(i-1), f.Name(i))
			}
		}
		for name, want := range sub {
			got, ok := f.Get(name)
			if !ok || !got.Equal(want) || got.Key() != want.Key() || got.Display() != want.Display() {
				t.Errorf("%v: Get(%q) = %v, %v, want %v", sub, name, got, ok, want)
			}
			if got := f.Apply(term.Var(name)); got.Key() != want.Key() {
				t.Errorf("%v: Apply(%s) = %v, want %v", sub, name, got, want)
			}
		}
		for _, name := range probes {
			want, wantOK := sub[name]
			got, ok := f.Get(name)
			if ok != wantOK || ok && got.Key() != want.Key() {
				t.Errorf("%v: Get(%q) = %v, %v, want %v, %v", sub, name, got, ok, want, wantOK)
			}
			if !wantOK && f.Apply(term.Var(name)).Key() != term.Var(name).Key() {
				t.Errorf("%v: Apply of unbound %q changed it", sub, name)
			}
		}
		if c := term.Str("c"); f.Apply(c).Key() != c.Key() {
			t.Errorf("%v: Apply changed a constant", sub)
		}
		back := f.Substitution()
		if len(back) != len(sub) {
			t.Fatalf("%v: Substitution() = %v", sub, back)
		}
		for name, want := range sub {
			if got, ok := back[name]; !ok || got.Key() != want.Key() {
				t.Errorf("%v: Substitution()[%q] = %v, want %v", sub, name, got, want)
			}
		}
	}
	var zero Frame
	if _, ok := zero.Get("X"); ok || zero.Len() != 0 || len(zero.Substitution()) != 0 {
		t.Error("zero Frame binds something")
	}
}

// TestFrameLayoutsInterned: frames over the same names share one layout,
// and extending a frame keeps the names sorted.
func TestFrameLayoutsInterned(t *testing.T) {
	e := &engine{}
	a := e.frameOf(term.Substitution{"X": term.Str("a"), "Y": term.Str("b")})
	b := e.frameOf(term.Substitution{"Y": term.Int(1), "X": term.Int(2)})
	if a.vars != b.vars {
		t.Error("frames over {X, Y} have distinct layouts")
	}
	ext := e.withBindings(a, []string{"Z", "A", "XX"}, []term.Term{term.Null("z1"), term.Int(7), term.Float(0.5)})
	want := term.Substitution{"X": term.Str("a"), "Y": term.Str("b"), "Z": term.Null("z1"), "A": term.Int(7), "XX": term.Float(0.5)}
	direct := e.frameOf(want)
	if ext.vars != direct.vars {
		t.Errorf("extended layout %v, want %v", ext.vars.names, direct.vars.names)
	}
	for name, w := range want {
		if got, ok := ext.Get(name); !ok || got.Key() != w.Key() {
			t.Errorf("extended Get(%q) = %v, %v, want %v", name, got, ok, w)
		}
	}
	if a.Len() != 2 {
		t.Error("withBindings mutated its input frame")
	}
}

// TestFrameGetAllocs: lookups through a frame allocate nothing.
func TestFrameGetAllocs(t *testing.T) {
	e := &engine{}
	f := e.frameOf(frameSubs()[4])
	var sink term.Term
	allocs := testing.AllocsPerRun(100, func() {
		for _, name := range []string{"X", "TS", "S", "nope", ""} {
			v, _ := f.Get(name)
			sink = v
		}
		sink = f.Apply(term.Var("Z"))
	})
	if allocs != 0 {
		t.Errorf("Get/Apply allocate %.1f times per run, want 0", allocs)
	}
	_ = sink
}

// TestFrameDecodeRejectsUnsortedNames: the codec writes frame names strictly
// ascending, so a payload with unsorted or repeated names is corrupt, as is
// one whose name holds a NUL byte (it would split in the layout key).
func TestFrameDecodeRejectsUnsortedNames(t *testing.T) {
	for _, names := range [][]string{{"Y", "X"}, {"X", "X"}, {"A\x00B"}, {"A", "B\x00"}} {
		w := &stateWriter{}
		w.uint(uint64(len(names)))
		for _, n := range names {
			w.str(n)
			w.term(term.Int(1))
		}
		r := &stateReader{data: w.buf}
		r.frame(&engine{})
		if r.err == nil {
			t.Errorf("names %v decoded without error", names)
		}
	}
	w := &stateWriter{}
	w.frame((&engine{}).frameOf(term.Substitution{"Y": term.Int(1), "X": term.Str("x")}))
	r := &stateReader{data: w.buf}
	if f := r.frame(&engine{}); r.err != nil || f.Len() != 2 || f.Name(0) != "X" {
		t.Errorf("round trip: %v, %v", f.Substitution(), r.err)
	}
}
