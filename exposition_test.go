package decor

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"decor/internal/obs"
)

// promLine is the text exposition's line grammar: a # TYPE line, or a
// sample with an optional set of quoted, escaped label values and one
// value.
var promLine = regexp.MustCompile(`^(?:# TYPE [a-zA-Z_:][a-zA-Z0-9_:]* (?:counter|gauge|histogram)|` +
	`[a-zA-Z_:][a-zA-Z0-9_:]*(?:\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\[\\"n])*"(?:,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\\n]|\\[\\"n])*")*\})? (\S+))$`)

// TestDefaultExposition: this package links sim, protocol and core, as
// every binary with -metrics does, and their package init creates their
// instruments on obs.Default(). Its exposition parses under the strict
// grammar and announces every decor_sim_*, decor_protocol_* and
// decor_core_* name in internal/obs/default.go. Every other name there
// is a decor_serve_* or decor_session_* one, which the service's
// TestServeExposition covers.
func TestDefaultExposition(t *testing.T) {
	var b bytes.Buffer
	if err := obs.Default().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(strings.TrimSuffix(b.String(), "\n"), "\n") {
		m := promLine.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("malformed line %q", line)
		} else if _, err := strconv.ParseFloat(m[1], 64); m[1] != "" && err != nil {
			t.Errorf("sample value in %q: %v", line, err)
		}
	}

	f, err := parser.ParseFile(token.NewFileSet(), "internal/obs/default.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, d := range f.Decls {
		gd, ok := d.(*ast.GenDecl)
		if !ok || gd.Tok != token.CONST {
			continue
		}
		for _, spec := range gd.Specs {
			for _, v := range spec.(*ast.ValueSpec).Values {
				lit, ok := v.(*ast.BasicLit)
				if !ok || lit.Kind != token.STRING {
					continue
				}
				name, _ := strconv.Unquote(lit.Value)
				n++
				switch {
				case strings.HasPrefix(name, "decor_sim_"), strings.HasPrefix(name, "decor_protocol_"), strings.HasPrefix(name, "decor_core_"):
					if !strings.Contains(b.String(), "# TYPE "+name+" ") {
						t.Errorf("no # TYPE line for %s", name)
					}
				case strings.HasPrefix(name, "decor_serve_"), strings.HasPrefix(name, "decor_session_"):
				default:
					t.Errorf("%s is checked by no exposition test", name)
				}
			}
		}
	}
	if n == 0 {
		t.Fatal("internal/obs/default.go declares no metric names")
	}
}
