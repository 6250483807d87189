// Package directive parses the //simlint: comment directives that carry the
// simulator's machine-checked contracts:
//
//	//simlint:cowshared               snapshot-shared field; written only in
//	//                                //simlint:cowbarrier functions
//	//simlint:cowbarrier              function that clones shared state into
//	//                                the writer before writing it
//	//simlint:panicboundary           function that installs recover as its
//	//                                first deferred work; goroutines start in one
//	//simlint:ignore <rules> <why>    suppress one or more rules (comma-
//	//                                separated) on this (or the next) line;
//	//                                the reason is mandatory
//	//simlint:nocheckpoint <why>      the loop on this (or the next) line
//	//                                intentionally issues omp regions without
//	//                                calling rt.Checkpoint(); the reason is
//	//                                mandatory
//
// Parsing is forgiving about whitespace: arguments may be separated by
// spaces or tabs, and CRLF line endings do not leak a '\r' into the last
// argument. Both ignore and nocheckpoint directives track whether they
// actually suppressed anything, so the driver can report stale ones.
package directive

import (
	"go/ast"
	"go/token"
	"strings"
)

const prefix = "//simlint:"

// A Directive is one parsed //simlint: comment.
type Directive struct {
	Kind string // "cowshared", "ignore", ...
	Args string // remainder of the line, whitespace-trimmed
	Pos  token.Pos
}

// cutArg splits the first whitespace-separated (space or tab) token off s.
func cutArg(s string) (head, rest string) {
	s = strings.TrimLeft(s, " \t")
	i := strings.IndexAny(s, " \t")
	if i < 0 {
		return s, ""
	}
	return s[:i], strings.TrimLeft(s[i:], " \t")
}

// parse extracts a directive from one comment, if present.
func parse(c *ast.Comment) (Directive, bool) {
	if !strings.HasPrefix(c.Text, prefix) {
		return Directive{}, false
	}
	// A file with CRLF endings carries the '\r' in the comment text.
	rest := strings.TrimRight(strings.TrimPrefix(c.Text, prefix), "\r\n\t ")
	kind, args := cutArg(rest)
	if kind == "" {
		return Directive{}, false
	}
	return Directive{Kind: kind, Args: args, Pos: c.Pos()}, true
}

// fromGroups collects directives from any of the comment groups.
func fromGroups(groups ...*ast.CommentGroup) []Directive {
	var out []Directive
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			if d, ok := parse(c); ok {
				out = append(out, d)
			}
		}
	}
	return out
}

// Field returns the directives attached to a struct field (doc comment above
// or line comment after).
func Field(f *ast.Field) []Directive { return fromGroups(f.Doc, f.Comment) }

// Func returns the directives in a function's doc comment.
func Func(fd *ast.FuncDecl) []Directive { return fromGroups(fd.Doc) }

// Has reports whether ds contains a directive of the given kind.
func Has(ds []Directive, kind string) bool {
	for _, d := range ds {
		if d.Kind == kind {
			return true
		}
	}
	return false
}

// An Ignore is one //simlint:ignore suppression. One directive may suppress
// several rules on the same line: "//simlint:ignore ruleA,ruleB reason".
type Ignore struct {
	Rules  []string
	Reason string
	File   string
	Line   int
	Pos    token.Pos

	used bool // set by Match when the ignore suppresses a diagnostic
}

// Covers reports whether the ignore names the rule.
func (ig *Ignore) Covers(rule string) bool {
	for _, r := range ig.Rules {
		if r == rule {
			return true
		}
	}
	return false
}

// RuleList renders the rule list for diagnostics.
func (ig *Ignore) RuleList() string { return strings.Join(ig.Rules, ",") }

// IgnoreSet indexes every //simlint:ignore directive in a set of files.
type IgnoreSet struct {
	byLine map[string]map[int][]*Ignore // file -> line -> ignores
	all    []*Ignore
}

// Ignores scans files for //simlint:ignore directives. A suppression on
// line L covers diagnostics reported on line L (trailing comment) and line
// L+1 (standalone comment above the offending statement).
func Ignores(fset *token.FileSet, files []*ast.File) *IgnoreSet {
	s := &IgnoreSet{byLine: make(map[string]map[int][]*Ignore)}
	for _, f := range files {
		for _, g := range f.Comments {
			for _, c := range g.List {
				d, ok := parse(c)
				if !ok || d.Kind != "ignore" {
					continue
				}
				rules, reason := cutArg(d.Args)
				p := fset.Position(c.Pos())
				ig := &Ignore{
					Reason: reason,
					File:   p.Filename,
					Line:   p.Line,
					Pos:    c.Pos(),
				}
				for _, r := range strings.Split(rules, ",") {
					if r = strings.TrimSpace(r); r != "" {
						ig.Rules = append(ig.Rules, r)
					}
				}
				m := s.byLine[ig.File]
				if m == nil {
					m = make(map[int][]*Ignore)
					s.byLine[ig.File] = m
				}
				m[ig.Line] = append(m[ig.Line], ig)
				s.all = append(s.all, ig)
			}
		}
	}
	return s
}

// Match reports whether a diagnostic of the given rule at pos is suppressed,
// and marks the matching ignore as used (see Stale).
func (s *IgnoreSet) Match(fset *token.FileSet, rule string, pos token.Pos) bool {
	return s.Find(fset, rule, pos) != nil
}

// Find returns the ignore suppressing a diagnostic of the given rule at pos
// (or nil), marking it used. Reasonless ignores never match.
func (s *IgnoreSet) Find(fset *token.FileSet, rule string, pos token.Pos) *Ignore {
	p := fset.Position(pos)
	m := s.byLine[p.Filename]
	if m == nil {
		return nil
	}
	for _, line := range [2]int{p.Line, p.Line - 1} {
		for _, ig := range m[line] {
			if ig.Covers(rule) && ig.Reason != "" {
				ig.used = true
				return ig
			}
		}
	}
	return nil
}

// Invalid returns the ignores that carry no rule or no written reason; the
// driver reports these as errors (a suppression must justify itself).
func (s *IgnoreSet) Invalid() []*Ignore {
	var out []*Ignore
	for _, ig := range s.all {
		if len(ig.Rules) == 0 || ig.Reason == "" {
			out = append(out, ig)
		}
	}
	return out
}

// Stale returns the well-formed ignores that suppressed nothing in this run:
// the code they excused has been fixed or moved, so they should be deleted.
// Only meaningful after every diagnostic has been filtered through Match.
func (s *IgnoreSet) Stale() []*Ignore {
	var out []*Ignore
	for _, ig := range s.all {
		if len(ig.Rules) > 0 && ig.Reason != "" && !ig.used {
			out = append(out, ig)
		}
	}
	return out
}

// A NoCheckpoint is one //simlint:nocheckpoint annotation: the loop it
// covers intentionally issues omp regions without reaching rt.Checkpoint().
type NoCheckpoint struct {
	Reason string
	File   string
	Line   int
	Pos    token.Pos

	used bool
}

// NoCheckpointSet indexes every //simlint:nocheckpoint annotation in a set
// of files.
type NoCheckpointSet struct {
	byLine map[string]map[int][]*NoCheckpoint
	all    []*NoCheckpoint
}

// NoCheckpoints scans files for //simlint:nocheckpoint annotations. Like
// ignores, an annotation on line L covers a loop starting on line L
// (trailing comment) or line L+1 (standalone comment above the loop).
func NoCheckpoints(fset *token.FileSet, files []*ast.File) *NoCheckpointSet {
	s := &NoCheckpointSet{byLine: make(map[string]map[int][]*NoCheckpoint)}
	for _, f := range files {
		for _, g := range f.Comments {
			for _, c := range g.List {
				d, ok := parse(c)
				if !ok || d.Kind != "nocheckpoint" {
					continue
				}
				p := fset.Position(c.Pos())
				nc := &NoCheckpoint{Reason: d.Args, File: p.Filename, Line: p.Line, Pos: c.Pos()}
				m := s.byLine[nc.File]
				if m == nil {
					m = make(map[int][]*NoCheckpoint)
					s.byLine[nc.File] = m
				}
				m[nc.Line] = append(m[nc.Line], nc)
				s.all = append(s.all, nc)
			}
		}
	}
	return s
}

// Match reports whether a loop starting at pos is annotated, and marks the
// annotation used. Reasonless annotations never match.
func (s *NoCheckpointSet) Match(fset *token.FileSet, pos token.Pos) bool {
	p := fset.Position(pos)
	m := s.byLine[p.Filename]
	if m == nil {
		return false
	}
	for _, line := range [2]int{p.Line, p.Line - 1} {
		for _, nc := range m[line] {
			if nc.Reason != "" {
				nc.used = true
				return true
			}
		}
	}
	return false
}

// Invalid returns the annotations with no written reason.
func (s *NoCheckpointSet) Invalid() []*NoCheckpoint {
	var out []*NoCheckpoint
	for _, nc := range s.all {
		if nc.Reason == "" {
			out = append(out, nc)
		}
	}
	return out
}

// Stale returns the well-formed annotations that excused no loop.
func (s *NoCheckpointSet) Stale() []*NoCheckpoint {
	var out []*NoCheckpoint
	for _, nc := range s.all {
		if nc.Reason != "" && !nc.used {
			out = append(out, nc)
		}
	}
	return out
}
