package decor

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// surfaceAllowlist names the functions and methods under internal/ and
// cmd/ that no non-test file calls but that stay in production code,
// each with its reason. Keys are "dir.Name" for functions and
// "dir.Type.Method" for methods.
var surfaceAllowlist = map[string]string{
	"internal/chaos.DecodeScenario":            "the fuzz decoder shared by the chaos and protocol fuzzers",
	"internal/geom.Disk.IntersectionArea":      "the exact-area oracle of the percover, lowdisc and geom tests",
	"internal/geom.Pt":                         "the point constructor of about 25 packages' tests",
	"internal/sim/invariant.LeaderAgreement":   "the invariant of the protocol crash/partition test",
	"internal/lowdisc.StarDiscrepancy":         "EXPERIMENTS.md reports its values",
	"internal/lowdisc.EstimateStarDiscrepancy": "EXPERIMENTS.md reports its values",
	"internal/session.Manager.Evict":           "tests evict one session mid-stream",
	"internal/sim.FaultPlan.Bounded":           "the fuzzers' severity check",
}

// stdInterfaceMethods are methods the standard library calls through
// its own interfaces (fmt.Stringer, error, http.Handler, sort and heap,
// JSON marshalling), so no selector in this module need name them.
var stdInterfaceMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "ServeHTTP": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
}

type surfaceDecl struct {
	key  string // dir.Name or dir.Type.Method
	name string
	recv string
	pos  token.Position
}

// parsedFile is one non-test Go file and its directory relative to the
// module root.
type parsedFile struct {
	dir string
	f   *ast.File
}

// parseNonTest parses every non-test Go file below root, skipping
// testdata and hidden or underscore directories.
func parseNonTest(t *testing.T, fset *token.FileSet, root string) []parsedFile {
	t.Helper()
	var files []parsedFile
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(path))
		if err != nil {
			return err
		}
		files = append(files, parsedFile{filepath.ToSlash(rel), f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// surfaceScan parses every non-test Go file below root and returns the
// functions and methods declared under internal/ and cmd/ that no
// non-test file uses outside the declaration itself. A package-level
// function counts as used only through pkg.Name in a file that imports
// its package, or through a bare Name inside its own package; a method
// when its name appears as a selector or as an interface method.
func surfaceScan(t *testing.T, root string) (decls map[string]surfaceDecl, unused []surfaceDecl) {
	t.Helper()
	fset := token.NewFileSet()
	files := parseNonTest(t, fset, root)
	pkgName := map[string]string{} // dir -> package name
	for _, pf := range files {
		pkgName[pf.dir] = pf.f.Name.Name
	}

	decls = map[string]surfaceDecl{}
	funcUses := map[string]map[string]bool{}  // dir.Name -> owners of its uses
	selectors := map[string]map[string]bool{} // method name -> owners of its uses
	note := func(m map[string]map[string]bool, name, owner string) {
		if m[name] == nil {
			m[name] = map[string]bool{}
		}
		m[name][owner] = true
	}
	for _, pf := range files {
		dir, f := pf.dir, pf.f
		// imports maps each local package name to the imported module dir.
		imports := map[string]string{}
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil || (path != "decor" && !strings.HasPrefix(path, "decor/")) {
				continue
			}
			idir := strings.TrimPrefix(strings.TrimPrefix(path, "decor"), "/")
			if idir == "" {
				idir = "."
			}
			local := pkgName[idir]
			if imp.Name != nil {
				local = imp.Name.Name
			}
			imports[local] = idir
		}
		// internal/sim/simtest is a test-support package: everything in
		// it exists for tests.
		scanned := (strings.HasPrefix(dir, "internal/") || strings.HasPrefix(dir, "cmd/")) && dir != "internal/sim/simtest"
		for _, decl := range f.Decls {
			owner := ""
			var own *ast.Ident
			if fd, ok := decl.(*ast.FuncDecl); ok {
				own = fd.Name
				recv := ""
				if fd.Recv != nil && len(fd.Recv.List) == 1 {
					recv = receiverType(fd.Recv.List[0].Type)
				}
				owner = dir + "." + fd.Name.Name
				if recv != "" {
					owner = dir + "." + recv + "." + fd.Name.Name
				}
				if scanned && fd.Name.Name != "main" && fd.Name.Name != "init" && fd.Name.Name != "_" {
					decls[owner] = surfaceDecl{key: owner, name: fd.Name.Name, recv: recv, pos: fset.Position(fd.Pos())}
				}
			}
			sels := map[*ast.Ident]bool{} // selected names: never bare uses
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					if n != own && !sels[n] {
						note(funcUses, dir+"."+n.Name, owner)
					}
				case *ast.SelectorExpr:
					sels[n.Sel] = true
					note(selectors, n.Sel.Name, owner)
					if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
						note(funcUses, imports[x.Name]+"."+n.Sel.Name, owner)
					}
				case *ast.InterfaceType:
					for _, m := range n.Methods.List {
						for _, id := range m.Names {
							note(selectors, id.Name, "interface")
						}
					}
				}
				return true
			})
		}
	}
	usedOutside := func(owners map[string]bool, self string) bool {
		for o := range owners {
			if o != self {
				return true
			}
		}
		return false
	}
	for _, d := range decls {
		var used bool
		if d.recv == "" {
			used = usedOutside(funcUses[d.key], d.key)
		} else {
			used = stdInterfaceMethods[d.name] || usedOutside(selectors[d.name], d.key)
		}
		if !used {
			unused = append(unused, d)
		}
	}
	sort.Slice(unused, func(i, j int) bool { return unused[i].key < unused[j].key })
	return decls, unused
}

// receiverType names a method's receiver type, without pointer or type
// parameters.
func receiverType(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return receiverType(e.X)
	case *ast.IndexExpr:
		return receiverType(e.X)
	case *ast.IndexListExpr:
		return receiverType(e.X)
	case *ast.Ident:
		return e.Name
	}
	return ""
}

// TestNoTestOnlySurface keeps production code to what production runs:
// a function or method under internal/ or cmd/ that only tests reach is
// deleted, or moved into the _test.go file that uses it as an oracle,
// unless surfaceAllowlist gives the reason it stays.
func TestNoTestOnlySurface(t *testing.T) {
	decls, unused := surfaceScan(t, ".")
	for _, d := range unused {
		if _, ok := surfaceAllowlist[d.key]; !ok {
			t.Errorf("%s:%d: %s has no caller outside tests; delete it, move it into a _test.go file, or give surfaceAllowlist its reason",
				d.pos.Filename, d.pos.Line, d.key)
		}
	}
	isUnused := map[string]bool{}
	for _, d := range unused {
		isUnused[d.key] = true
	}
	for key, reason := range surfaceAllowlist {
		switch {
		case reason == "":
			t.Errorf("surfaceAllowlist entry %s gives no reason", key)
		case decls[key].key == "":
			t.Errorf("surfaceAllowlist entry %s names no function or method; drop the entry", key)
		case !isUnused[key]:
			t.Errorf("surfaceAllowlist entry %s now has a production caller; drop the entry", key)
		}
	}
}

// TestTimingGoesThroughSpans keeps timing to one call: outside
// internal/obs a phase is timed with obs.Start or Tracer.StartTrace,
// whose End feeds both the histogram and the trace, so no production
// file observes a histogram by hand.
func TestTimingGoesThroughSpans(t *testing.T) {
	fset := token.NewFileSet()
	for _, pf := range parseNonTest(t, fset, ".") {
		if pf.dir == "internal/obs" {
			continue
		}
		ast.Inspect(pf.f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && (sel.Sel.Name == "Observe" || sel.Sel.Name == "ObserveExemplar") {
					p := fset.Position(sel.Sel.Pos())
					t.Errorf("%s:%d: %s observes a histogram by hand; time the phase with obs.Start", p.Filename, p.Line, sel.Sel.Name)
				}
			}
			return true
		})
	}
}
