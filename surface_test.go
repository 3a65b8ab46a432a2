package decor

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
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
	"internal/index.Neighborhoods.Len":         "the coverage tests check a built adjacency's size",
	"internal/sim/invariant.LeaderAgreement":   "the invariant of the protocol crash/partition test",
	"internal/lowdisc.StarDiscrepancy":         "EXPERIMENTS.md reports its values",
	"internal/lowdisc.EstimateStarDiscrepancy": "EXPERIMENTS.md reports its values",
	"internal/session.Manager.Evict":           "tests evict one session mid-stream",
	"internal/sim.FaultPlan.Bounded":           "the fuzzers' severity check",
}

// stdInterfaces lists the standard-library interfaces through which
// the standard library calls a module's methods, so no selector in this
// module need name them: "path.Name" for a declared interface, and for
// the two that the library only looks for by type assertion, the
// method's signature.
var stdInterfaces = []string{
	"error", "fmt.Stringer", "sort.Interface", "container/heap.Interface",
	"net/http.Handler", "encoding/json.Marshaler", "encoding/json.Unmarshaler",
	"Unwrap() error",               // errors.Is, errors.As and errors.Unwrap
	"Unwrap() http.ResponseWriter", // http.ResponseController
}

// stdInterface resolves one stdInterfaces entry through im.
func stdInterface(t *testing.T, im *moduleImporter, name string) *types.Interface {
	t.Helper()
	unwrap := func(result types.Type) *types.Interface {
		sig := types.NewSignatureType(nil, nil, nil, nil, types.NewTuple(types.NewVar(token.NoPos, nil, "", result)), false)
		return types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, "Unwrap", sig)}, nil).Complete()
	}
	errorType := types.Universe.Lookup("error").Type()
	switch name {
	case "error":
		return errorType.Underlying().(*types.Interface)
	case "Unwrap() error":
		return unwrap(errorType)
	case "Unwrap() http.ResponseWriter":
		return unwrap(stdType(t, im, "net/http.ResponseWriter"))
	}
	return stdType(t, im, name).Underlying().(*types.Interface)
}

// stdType looks up the type "path.Name" through im.
func stdType(t *testing.T, im *moduleImporter, name string) types.Type {
	t.Helper()
	dot := strings.LastIndex(name, ".")
	pkg, err := im.Import(name[:dot])
	if err != nil {
		t.Fatalf("importing %s: %v", name[:dot], err)
	}
	obj := pkg.Scope().Lookup(name[dot+1:])
	if obj == nil {
		t.Fatalf("%s declares no %s", name[:dot], name[dot+1:])
	}
	return obj.Type()
}

type surfaceDecl struct {
	key  string // dir.Name or dir.Type.Method
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

// moduleImporter type-checks the module's packages from the parsed
// non-test files, on demand and once each, recording every package's
// uses in one types.Info; it hands every other path to std.
type moduleImporter struct {
	fset  *token.FileSet
	files map[string][]*ast.File // import path -> non-test files
	pkgs  map[string]*types.Package
	info  *types.Info
	std   types.Importer
}

func (im *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := im.pkgs[path]; ok {
		return p, nil
	}
	files, ok := im.files[path]
	if !ok {
		return im.std.Import(path)
	}
	conf := types.Config{Importer: im}
	p, err := conf.Check(path, im.fset, files, im.info)
	if err != nil {
		return nil, err
	}
	im.pkgs[path] = p
	return p, nil
}

// surfaceScan type-checks every non-test Go file below root and returns
// the functions and methods declared under internal/ and cmd/ that no
// non-test file uses outside the declaration itself. A use is a
// types.Info.Uses entry that resolves to the function or method. A
// method also counts as used when its receiver implements an interface
// that has a method of its name and that the module declares or calls a
// method of, or that stdInterfaces names.
func surfaceScan(t *testing.T, root string) (decls map[string]surfaceDecl, unused []surfaceDecl) {
	t.Helper()
	fset := token.NewFileSet()
	files := parseNonTest(t, fset, root)

	// The standard library is type-checked from source, without cgo so
	// that the scan needs no C toolchain.
	defer func(cgo bool) { build.Default.CgoEnabled = cgo }(build.Default.CgoEnabled)
	build.Default.CgoEnabled = false
	im := &moduleImporter{
		fset:  fset,
		files: map[string][]*ast.File{},
		pkgs:  map[string]*types.Package{},
		info:  &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}},
		std:   importer.ForCompiler(fset, "source", nil),
	}
	importPath := func(dir string) string {
		if dir == "." {
			return "decor"
		}
		return "decor/" + dir
	}
	for _, pf := range files {
		path := importPath(pf.dir)
		im.files[path] = append(im.files[path], pf.f)
	}
	for path := range im.files {
		if _, err := im.Import(path); err != nil {
			t.Fatalf("type-checking %s: %v", path, err)
		}
	}

	decls = map[string]surfaceDecl{}
	funcs := map[*types.Func]string{} // scanned declaration -> its key
	used := map[*types.Func]bool{}
	var ifaces []*types.Interface
	for _, name := range stdInterfaces {
		ifaces = append(ifaces, stdInterface(t, im, name))
	}
	for _, pf := range files {
		// internal/sim/simtest is a test-support package: everything in
		// it exists for tests.
		scanned := (strings.HasPrefix(pf.dir, "internal/") || strings.HasPrefix(pf.dir, "cmd/")) && pf.dir != "internal/sim/simtest"
		for _, decl := range pf.f.Decls {
			var own *types.Func
			if fd, ok := decl.(*ast.FuncDecl); ok {
				own = im.info.Defs[fd.Name].(*types.Func)
				recv := ""
				if r := own.Type().(*types.Signature).Recv(); r != nil {
					recv = deref(r.Type()).(*types.Named).Obj().Name()
				}
				key := pf.dir + "." + fd.Name.Name
				if recv != "" {
					key = pf.dir + "." + recv + "." + fd.Name.Name
				}
				if scanned && fd.Name.Name != "main" && fd.Name.Name != "init" && fd.Name.Name != "_" {
					decls[key] = surfaceDecl{key: key, recv: recv, pos: fset.Position(fd.Pos())}
					funcs[own] = key
				}
			}
			ast.Inspect(decl, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.Ident:
					fn, ok := im.info.Uses[n].(*types.Func)
					if !ok || fn.Origin() == own {
						return true
					}
					used[fn.Origin()] = true
					// A call through an interface reaches every
					// implementation of that interface.
					if r := fn.Type().(*types.Signature).Recv(); r != nil {
						if it, ok := r.Type().Underlying().(*types.Interface); ok {
							ifaces = append(ifaces, it)
						}
					}
				case *ast.InterfaceType:
					ifaces = append(ifaces, im.info.Types[n].Type.(*types.Interface))
				}
				return true
			})
		}
	}
	implemented := func(fn *types.Func) bool {
		recv := deref(fn.Type().(*types.Signature).Recv().Type())
		for _, it := range ifaces {
			for i := 0; i < it.NumMethods(); i++ {
				if it.Method(i).Name() == fn.Name() && (types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it)) {
					return true
				}
			}
		}
		return false
	}
	for fn, key := range funcs {
		d := decls[key]
		if used[fn] || (d.recv != "" && implemented(fn)) {
			continue
		}
		unused = append(unused, d)
	}
	sort.Slice(unused, func(i, j int) bool { return unused[i].key < unused[j].key })
	return decls, unused
}

// deref strips one pointer from a receiver type.
func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
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
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Observe" {
					p := fset.Position(sel.Sel.Pos())
					t.Errorf("%s:%d: %s observes a histogram by hand; time the phase with obs.Start", p.Filename, p.Line, sel.Sel.Name)
				}
			}
			return true
		})
	}
}
