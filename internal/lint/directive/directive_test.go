package directive_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"hugeomp/internal/lint/directive"
)

const src = `package p

import "sync"

type s struct {
	mu sync.Mutex

	// doc directive
	//simlint:atomic
	word uint32

	slice []uint32 //simlint:atomic
	plain uint64
}

//simlint:cowbarrier
func barrier() {}

func cold() {}

func body() {
	x := 1 //simlint:ignore determinism trailing: same-line suppression
	_ = x
	//simlint:ignore atomicfield standalone: covers the next line
	y := 2
	_ = y
	z := 3 //simlint:ignore lockdiscipline
	_ = z
	w := 4 //simlint:ignore determinism,lockorder shared setup is replay-checked elsewhere
	_ = w
	v := 5 //simlint:ignore padding never matched in this test
	_ = v
}
`

func parseSrc(t *testing.T, name, text string) (*token.FileSet, *ast.File) {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, name, text, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	return fset, f
}

func parse(t *testing.T) (*token.FileSet, *ast.File) {
	t.Helper()
	return parseSrc(t, "p.go", src)
}

func TestFieldAndFuncDirectives(t *testing.T) {
	_, f := parse(t)
	var atomicFields []string
	ast.Inspect(f, func(n ast.Node) bool {
		st, ok := n.(*ast.StructType)
		if !ok {
			return true
		}
		for _, fld := range st.Fields.List {
			if directive.Has(directive.Field(fld), "atomic") {
				atomicFields = append(atomicFields, fld.Names[0].Name)
			}
		}
		return true
	})
	if len(atomicFields) != 2 || atomicFields[0] != "word" || atomicFields[1] != "slice" {
		t.Fatalf("atomic fields = %v, want [word slice]", atomicFields)
	}

	barriers := 0
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && directive.Has(directive.Func(fd), "cowbarrier") {
			barriers++
			if fd.Name.Name != "barrier" {
				t.Fatalf("cowbarrier on %s", fd.Name.Name)
			}
		}
	}
	if barriers != 1 {
		t.Fatalf("cowbarrier count = %d", barriers)
	}
}

func TestIgnores(t *testing.T) {
	fset, f := parse(t)
	igs := directive.Ignores(fset, []*ast.File{f})

	pos := func(line int) token.Pos {
		return fset.File(f.Pos()).LineStart(line)
	}
	// Line 22: trailing ignore for determinism suppresses its own line.
	if !igs.Match(fset, "determinism", pos(22)) {
		t.Error("trailing ignore did not match its own line")
	}
	if igs.Match(fset, "atomicfield", pos(22)) {
		t.Error("ignore matched the wrong rule")
	}
	// Line 24 holds a standalone ignore: it covers line 25.
	if !igs.Match(fset, "atomicfield", pos(25)) {
		t.Error("standalone ignore did not cover the following line")
	}
	if igs.Match(fset, "atomicfield", pos(27)) {
		t.Error("ignore leaked past the following line")
	}
	// The reasonless ignore on line 27 is invalid: it matches nothing.
	if igs.Match(fset, "lockdiscipline", pos(27)) {
		t.Error("reasonless ignore suppressed a diagnostic")
	}
	inv := igs.Invalid()
	if len(inv) != 1 || inv[0].RuleList() != "lockdiscipline" {
		t.Fatalf("Invalid() = %+v, want the one reasonless lockdiscipline ignore", inv)
	}

	// Line 29: one directive, two comma-separated rules, one shared reason.
	if !igs.Match(fset, "determinism", pos(29)) {
		t.Error("multi-rule ignore did not cover its first rule")
	}
	if !igs.Match(fset, "lockorder", pos(29)) {
		t.Error("multi-rule ignore did not cover its second rule")
	}
	if igs.Match(fset, "ctxflow", pos(29)) {
		t.Error("multi-rule ignore covered a rule it does not name")
	}

	// Only the never-matched padding ignore on line 31 is stale; everything
	// else either matched above or is invalid.
	st := igs.Stale()
	if len(st) != 1 || st[0].RuleList() != "padding" || st[0].Line != 31 {
		t.Fatalf("Stale() = %+v, want the one unmatched padding ignore", st)
	}
}

// TestParseEdgeCases drives the directive tokenizer through the whitespace
// and line-ending shapes that show up in real trees.
func TestParseEdgeCases(t *testing.T) {
	cases := []struct {
		name   string
		line   string // the full source line carrying the directive
		rules  string // expected Ignore.RuleList()
		reason string
	}{
		{"space separated", "//simlint:ignore determinism flaky clock", "determinism", "flaky clock"},
		{"tab separated", "//simlint:ignore\tdeterminism\ttab-separated reason", "determinism", "tab-separated reason"},
		{"mixed tabs and spaces", "//simlint:ignore \t lockorder \t boot path only", "lockorder", "boot path only"},
		{"multi rule", "//simlint:ignore a,b,c shared reason", "a,b,c", "shared reason"},
		{"multi rule stray comma", "//simlint:ignore a,,b shared reason", "a,b", "shared reason"},
		{"trailing whitespace", "//simlint:ignore determinism reason with trailing space   ", "determinism", "reason with trailing space"},
		{"trailing tab", "//simlint:ignore determinism reason\t", "determinism", "reason"},
		{"reasonless", "//simlint:ignore determinism", "determinism", ""},
		{"empty", "//simlint:ignore", "", ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			text := "package p\n\nfunc f() {\n\t_ = 1 " + tc.line + "\n}\n"
			fset, f := parseSrc(t, "edge.go", text)
			igs := directive.Ignores(fset, []*ast.File{f})
			all := append(igs.Invalid(), igs.Stale()...)
			if len(all) != 1 {
				t.Fatalf("parsed %d ignores, want 1", len(all))
			}
			ig := all[0]
			if ig.RuleList() != tc.rules {
				t.Errorf("rules = %q, want %q", ig.RuleList(), tc.rules)
			}
			if ig.Reason != tc.reason {
				t.Errorf("reason = %q, want %q", ig.Reason, tc.reason)
			}
		})
	}
}

// TestCRLF checks that Windows line endings do not leak a '\r' into the
// last argument of a directive.
func TestCRLF(t *testing.T) {
	text := strings.ReplaceAll(`package p

func f() {
	_ = 1 //simlint:ignore determinism crlf reason
}
`, "\n", "\r\n")
	fset, f := parseSrc(t, "crlf.go", text)
	igs := directive.Ignores(fset, []*ast.File{f})
	st := igs.Stale()
	if len(st) != 1 {
		t.Fatalf("parsed %d well-formed ignores, want 1", len(st))
	}
	if st[0].Reason != "crlf reason" {
		t.Errorf("reason = %q, want %q (no trailing CR)", st[0].Reason, "crlf reason")
	}
	if st[0].RuleList() != "determinism" {
		t.Errorf("rules = %q, want determinism", st[0].RuleList())
	}
}

func TestNoCheckpoints(t *testing.T) {
	text := `package p

func f(n int) {
	//simlint:nocheckpoint bounded sweep; caller checkpoints per cycle
	for i := 0; i < n; i++ {
	}
	for i := 0; i < n; i++ { //simlint:nocheckpoint
	}
	//simlint:nocheckpoint never matched
	_ = n
}
`
	fset, f := parseSrc(t, "nc.go", text)
	ncs := directive.NoCheckpoints(fset, []*ast.File{f})
	pos := func(line int) token.Pos {
		return fset.File(f.Pos()).LineStart(line)
	}

	// The standalone annotation on line 4 covers the loop on line 5.
	if !ncs.Match(fset, pos(5)) {
		t.Error("standalone nocheckpoint did not cover the following line")
	}
	// The trailing reasonless annotation on line 7 never matches.
	if ncs.Match(fset, pos(7)) {
		t.Error("reasonless nocheckpoint matched")
	}
	inv := ncs.Invalid()
	if len(inv) != 1 || inv[0].Line != 7 {
		t.Fatalf("Invalid() = %+v, want the reasonless annotation on line 7", inv)
	}
	st := ncs.Stale()
	if len(st) != 1 || st[0].Reason != "never matched" {
		t.Fatalf("Stale() = %+v, want the unmatched annotation on line 9", st)
	}
}
