package minicc

import (
	"fmt"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/cir"
	"repro/internal/oscorpus"
)

// lowerSequential is the reference LowerAll is checked against: Lower file by
// file in sorted-name order into one module, then AssignGIDs and Verify.
func lowerSequential(name string, sources map[string]string) (*cir.Module, error) {
	mod := cir.NewModule(name)
	var names []string
	for n := range sources {
		names = append(names, n)
	}
	slices.Sort(names)
	for _, n := range names {
		if err := Lower(mod, n, sources[n]); err != nil {
			return mod, err
		}
	}
	mod.AssignGIDs()
	if err := cir.Verify(mod); err != nil {
		return mod, fmt.Errorf("lowered module fails verification: %w", err)
	}
	return mod, nil
}

// instrIDs renders every instruction's GID and LID in module order.
func instrIDs(mod *cir.Module) string {
	var sb strings.Builder
	for _, fn := range mod.SortedFuncs() {
		fn.Instrs(func(in cir.Instr) { fmt.Fprintf(&sb, "%s %d %d\n", fn.Name, in.GID(), in.LID()) })
	}
	return sb.String()
}

func errString(err error) string {
	if err == nil {
		return "<nil>"
	}
	return err.Error()
}

// sameLowering fails t unless LowerAll and the sequential reference agree on
// sources: module rendering, instruction IDs, files, line count and error.
func sameLowering(t *testing.T, sources map[string]string) {
	t.Helper()
	want, wantErr := lowerSequential("m", sources)
	got, gotErr := LowerAll("m", sources)
	if g, w := errString(gotErr), errString(wantErr); g != w {
		t.Fatalf("error = %s, sequential lowering gives %s", g, w)
	}
	if g, w := got.String(), want.String(); g != w {
		t.Fatalf("module differs from sequential lowering\n--- got ---\n%s\n--- want ---\n%s", g, w)
	}
	if g, w := instrIDs(got), instrIDs(want); g != w {
		t.Fatal("GIDs/LIDs differ from sequential lowering")
	}
	if !slices.Equal(got.Files, want.Files) || got.SourceLines != want.SourceLines {
		t.Fatalf("Files/SourceLines = %v/%d, want %v/%d", got.Files, got.SourceLines, want.Files, want.SourceLines)
	}
}

func withGOMAXPROCS(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

func TestLowerAllMatchesSequential(t *testing.T) {
	specs := append(oscorpus.AllSpecs(), oscorpus.HelperHeavySpec(), oscorpus.ValidationHeavySpec())
	for _, spec := range specs {
		sources := oscorpus.Generate(spec).Sources
		for _, procs := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%s/procs=%d", spec.Name, procs), func(t *testing.T) {
				withGOMAXPROCS(t, procs)
				sameLowering(t, sources)
			})
		}
	}
}

func TestLowerAllErrorOrder(t *testing.T) {
	cases := []struct {
		name    string
		sources map[string]string
		want    string // the error, as the sequential loop reports it
	}{
		{
			name: "parse error in a middle file",
			sources: map[string]string{
				"a.c": "int a(int x) { return x; }",
				"b.c": "int b(int x) { return x +; }",
				"c.c": "int c( { return 0; }",
				"d.c": "int d(int x) { return a(x); }",
			},
			want: "b.c:1:26: expected expression, found \";\"",
		},
		{
			name: "lowering error before a parse error",
			sources: map[string]string{
				"a.c": "int f(int x) { return x; }",
				"b.c": "int f(int x) { return x + 1; }",
				"c.c": "int g( { return 0; }",
			},
			want: "b.c:1:5: redefinition of function f",
		},
		{
			name: "lexical error after a parse error in one file",
			sources: map[string]string{
				"a.c": "int f( { return 0; }\nint g(int x) { return x @ 1; }",
			},
			want: "a.c:2:25: unexpected character \"@\"",
		},
	}
	for _, tc := range cases {
		for _, procs := range []int{1, 2, 8} {
			t.Run(fmt.Sprintf("%s/procs=%d", tc.name, procs), func(t *testing.T) {
				withGOMAXPROCS(t, procs)
				sameLowering(t, tc.sources)
				if _, err := LowerAll("m", tc.sources); errString(err) != tc.want {
					t.Fatalf("error = %s, want %s", errString(err), tc.want)
				}
			})
		}
	}
}

// TestLowerAllForwardsParsePanic checks that a panic on a parse worker is
// re-raised on the caller's goroutine, at the file where sequential lowering
// would raise it: an earlier file's error still wins.
func TestLowerAllForwardsParsePanic(t *testing.T) {
	withGOMAXPROCS(t, 4)
	parseSource = func(file, src string) (*File, error) {
		if file == "c.c" {
			panic("parse panic in " + file)
		}
		return Parse(file, src)
	}
	t.Cleanup(func() { parseSource = Parse })

	sources := map[string]string{
		"a.c": "int a(int x) { return x; }",
		"b.c": "int b(int x) { return a(x); }",
		"c.c": "int c(int x) { return b(x); }",
		"d.c": "int d(int x) { return c(x); }",
	}
	recovered := func() (p any) {
		defer func() { p = recover() }()
		LowerAll("m", sources)
		return nil
	}()
	if recovered != "parse panic in c.c" {
		t.Fatalf("recovered %v, want the worker's panic value", recovered)
	}

	sources["b.c"] = "int a(int x) { return x + 1; }"
	_, err := LowerAll("m", sources)
	if want := "b.c:1:5: redefinition of function a"; errString(err) != want {
		t.Fatalf("error = %s, want %s", errString(err), want)
	}
}
