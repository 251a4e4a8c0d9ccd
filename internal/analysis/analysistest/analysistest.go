// Package analysistest runs one analyzer over a fixture module and
// compares its diagnostics against expectations embedded in the fixture
// source, in the style of golang.org/x/tools/go/analysis/analysistest:
//
//	total += v // want `map iteration order is nondeterministic`
//
// Each `// want` comment carries one or more quoted or backquoted
// regular expressions; every diagnostic on that line must match one of
// them, every expectation must be matched by a diagnostic, and any
// diagnostic on a line with no expectation fails the test. Fixtures are
// small self-contained modules (their own go.mod, conventionally
// `module anufs` so package paths mirror the real tree); the go tool
// ignores everything under testdata, so fixture code never leaks into
// builds of the repository.
package analysistest

import (
	"regexp"
	"strconv"
	"strings"
	"testing"

	"anufs/internal/analysis"
)

// wantRe pulls the expectation list out of a comment.
var wantRe = regexp.MustCompile(`// want (.*)$`)

type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	raw     string
	matched bool
}

// Run loads the fixture module rooted at dir and applies the analyzer
// to every package in it, checking diagnostics against the fixture's
// `// want` comments.
func Run(t *testing.T, dir string, a *analysis.Analyzer) {
	t.Helper()
	pkgs, err := analysis.Load(dir, "./...")
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	if len(pkgs) == 0 {
		t.Fatalf("fixture %s matched no packages", dir)
	}
	for _, pkg := range pkgs {
		wants := collectWants(t, pkg)
		diags, err := analysis.Run(pkg, []*analysis.Analyzer{a}, nil)
		if err != nil {
			t.Fatalf("running %s on %s: %v", a.Name, pkg.Path, err)
		}
		for _, d := range diags {
			pos := pkg.Fset.Position(d.Pos)
			found := false
			for _, w := range wants {
				if w.file == pos.Filename && w.line == pos.Line && !w.matched && w.re.MatchString(d.Message) {
					w.matched = true
					found = true
					break
				}
			}
			if !found {
				t.Errorf("unexpected diagnostic at %s: %s (%s)", pos, d.Message, d.Analyzer)
			}
		}
		for _, w := range wants {
			if !w.matched {
				t.Errorf("%s:%d: no diagnostic matched want %s", w.file, w.line, w.raw)
			}
		}
	}
}

// collectWants parses every `// want` expectation in the package's
// files.
func collectWants(t *testing.T, pkg *analysis.Package) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRe.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, raw := range splitPatterns(m[1]) {
					pat, err := unquote(raw)
					if err != nil {
						t.Fatalf("%s:%d: bad want pattern %s: %v", pos.Filename, pos.Line, raw, err)
					}
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Fatalf("%s:%d: bad want regexp %s: %v", pos.Filename, pos.Line, raw, err)
					}
					wants = append(wants, &expectation{
						file: pos.Filename,
						line: pos.Line,
						re:   re,
						raw:  raw,
					})
				}
			}
		}
	}
	return wants
}

// splitPatterns splits `"a" "b c"` or "`a` `b`" into raw quoted tokens.
func splitPatterns(s string) []string {
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		quote := s[0]
		if quote != '"' && quote != '`' {
			break
		}
		end := strings.IndexByte(s[1:], quote)
		if end < 0 {
			break
		}
		out = append(out, s[:end+2])
		s = strings.TrimSpace(s[end+2:])
	}
	return out
}

func unquote(raw string) (string, error) {
	if strings.HasPrefix(raw, "`") {
		return strings.Trim(raw, "`"), nil
	}
	return strconv.Unquote(raw)
}
