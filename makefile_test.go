package decor

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestMakefileTestNamesExist keeps the Makefile's smoke targets honest:
// `go test -run` passes with "no tests to run" when a name matches
// nothing, so a renamed or deleted test would silently drop out of
// `make check`. Every ^Name$ alternative of a -run or -fuzz pattern must
// name a func Name( in the _test.go files of that line's packages.
func TestMakefileTestNamesExist(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	text := strings.ReplaceAll(string(mk), "\\\n", " ")
	patternFlag := regexp.MustCompile(`-(?:run|fuzz) '([^']*)'`)
	checked := 0
	for _, line := range strings.Split(text, "\n") {
		flags := patternFlag.FindAllStringSubmatch(line, -1)
		if len(flags) == 0 {
			continue
		}
		var pkgs []string
		for _, f := range strings.Fields(line) {
			if strings.HasPrefix(f, "./") {
				pkgs = append(pkgs, f)
			}
		}
		if len(pkgs) == 0 {
			t.Errorf("Makefile line names tests but no ./ package: %s", strings.TrimSpace(line))
			continue
		}
		src := testSources(t, pkgs)
		for _, fl := range flags {
			for _, alt := range strings.Split(strings.ReplaceAll(fl[1], "$$", "$"), "|") {
				name, ok := strings.CutPrefix(alt, "^")
				name, ok2 := strings.CutSuffix(name, "$")
				if !ok || !ok2 || name == "" {
					continue // not an exact name; '^$' runs no tests
				}
				checked++
				if !strings.Contains(src, "func "+name+"(") {
					t.Errorf("Makefile runs %s in %s, but no _test.go file there declares it", name, strings.Join(pkgs, " "))
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("found no -run or -fuzz test names in the Makefile")
	}
}

// TestMakefileTargetsExist keeps the Makefile's own references honest:
// make fails only when a missing target is reached, so a deleted target
// left in `check` would surface only under `make check`. Every .PHONY
// name and every $(MAKE) X must have a rule.
func TestMakefileTargetsExist(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	text := strings.ReplaceAll(string(mk), "\\\n", " ")
	rules := map[string]bool{}
	for _, m := range regexp.MustCompile(`(?m)^([A-Za-z0-9_.-]+):([^=]|$)`).FindAllStringSubmatch(text, -1) {
		rules[m[1]] = true
	}
	var named []string
	for _, m := range regexp.MustCompile(`(?m)^\.PHONY:(.*)$`).FindAllStringSubmatch(text, -1) {
		named = append(named, strings.Fields(m[1])...)
	}
	for _, m := range regexp.MustCompile(`\$\(MAKE\)\s+([A-Za-z0-9_.-]+)`).FindAllStringSubmatch(text, -1) {
		named = append(named, m[1])
	}
	if len(named) == 0 {
		t.Fatal("found no .PHONY names or $(MAKE) targets in the Makefile")
	}
	for _, name := range named {
		if !rules[name] {
			t.Errorf("the Makefile names target %s, but no rule defines it", name)
		}
	}
}

// testSources concatenates the _test.go files of the given package
// patterns: a directory, or a directory/... tree, which like the go
// command skips directories named testdata or starting with . or _.
func testSources(t *testing.T, pkgs []string) string {
	t.Helper()
	var sb strings.Builder
	for _, p := range pkgs {
		dir, recursive := strings.CutSuffix(p, "...")
		dir = filepath.Clean(dir)
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				name := d.Name()
				if path != dir && (!recursive || name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
					return filepath.SkipDir
				}
				return nil
			}
			if strings.HasSuffix(path, "_test.go") {
				b, err := os.ReadFile(path)
				if err != nil {
					return err
				}
				sb.Write(b)
				sb.WriteByte('\n')
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return sb.String()
}
