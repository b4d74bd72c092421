// Structural rules of the design, checked on the source with go/parser
// and go/ast. DESIGN.md states each rule once and cites the test that
// holds it.
package amnt_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// perAccessFiles are the files one simulated access runs through: the
// controller's read, write, epoch and write-queue code and the cache,
// cpu, sim and kernel packages.
func perAccessFiles(t *testing.T) []string {
	files := []string{"internal/mee/mee.go", "internal/mee/wqueue.go", "internal/mee/epoch.go", "internal/mee/readview.go"}
	for _, dir := range []string{"internal/cache", "internal/cpu", "internal/sim", "internal/kernel"} {
		files = append(files, goFiles(t, dir)...)
	}
	return files
}

// mapAllowed names the declarations of the per-access files that may
// hold a map type, and why none of them is reached per access.
var mapAllowed = map[string]string{
	"internal/kernel/buddy.go:Allocator":                 "free-chunk index, touched per page fault",
	"internal/kernel/buddy.go:NewAllocator":              "builds that index",
	"internal/kernel/buddy.go:Allocator.Clone":           "copies that index, once per machine",
	"internal/kernel/buddy.go:Allocator.CheckInvariants": "test and debug check",
	"internal/kernel/kernel.go:Kernel":                   "process table, touched per process",
	"internal/kernel/kernel.go:newKernel":                "builds that table",
	"internal/sim/sim.go:Machine.ProcessPages":           "per report",
}

// TestArchNoMapPerAccess: a Go map costs a hash and a probe per use,
// so no map type appears in a per-access file outside mapAllowed.
func TestArchNoMapPerAccess(t *testing.T) {
	for _, file := range perAccessFiles(t) {
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			where := file + ":" + declName(decl)
			ast.Inspect(decl, func(n ast.Node) bool {
				if _, ok := n.(*ast.MapType); ok {
					if _, ok := mapAllowed[where]; !ok {
						t.Errorf("%s: map type in %s, on the simulator's per-access path", fset.Position(n.Pos()), where)
					}
				}
				return true
			})
		}
	}
}

// simulatorPackages model the machine; servingPackages serve it over
// the network. The model must build without the serving side.
var (
	simulatorPackages = []string{"sim", "cpu", "cache", "mee", "bmt", "scm", "core", "workload", "kernel"}
	servingPackages   = []string{"store", "node", "cluster", "wire"}
)

// TestArchSimulatorImportsNoServing: no simulator package reaches a
// serving package through its non-test imports, directly or through
// other internal packages.
func TestArchSimulatorImportsNoServing(t *testing.T) {
	checkNoImports(t, simulatorPackages, servingPackages, "serving package")
}

// TestArchServingImportsNoSimulator: the serving side checks its
// recoveries with internal/faults (DESIGN.md §8) and never links the
// simulated machine or the experiment drivers that run it.
func TestArchServingImportsNoSimulator(t *testing.T) {
	checkNoImports(t, servingPackages, []string{"sim", "cpu", "kernel", "workload", "experiments"}, "simulator package")
}

// TestArchRecoverOnlyInFaultsAndStore: every measured recovery goes
// through the recovery checker (DESIGN.md §8), so outside tests and
// examples/ no call selects .Recover or .BeginRecovery except in
// internal/faults (the checker) and internal/store (the serving
// shard's online recovery). Passing a Recover method as a value is not
// a call. The nested bench module is its own module and is not walked.
func TestArchRecoverOnlyInFaultsAndStore(t *testing.T) {
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			switch {
			case path == "internal/faults" || path == "internal/store" || path == "examples" || path == "bench",
				name == "testdata", name != "." && strings.HasPrefix(name, "."):
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && (sel.Sel.Name == "Recover" || sel.Sel.Name == "BeginRecovery") {
					t.Errorf("%s: calls .%s; recover through faults.CheckRecovery", fset.Position(call.Pos()), sel.Sel.Name)
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestArchFrontEndImportsNoProtocol: the cache hierarchy is the
// machine's protocol-independent front end (DESIGN.md §2.1), so
// internal/cpu reaches no protocol code; that is what lets one recorded
// access stream drive every protocol's controller.
func TestArchFrontEndImportsNoProtocol(t *testing.T) {
	checkNoImports(t, []string{"cpu"}, []string{"mee", "core"}, "protocol package")
}

// TestArchFrontEndReadsOnlyFrontEndConfig: the engine keys a recorded
// stream by sim.FrontEndConfig (DESIGN.md §2.2), which holds only if
// the front end reads nothing else, so internal/sim/frontend.go never
// names the composed Config type and never selects .MEE.
func TestArchFrontEndReadsOnlyFrontEndConfig(t *testing.T) {
	const file = "internal/sim/frontend.go"
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	selected := map[*ast.Ident]bool{} // kernel.Config and the like
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			selected[n.Sel] = true
			if n.Sel.Name == "MEE" {
				t.Errorf("%s: selects .MEE; the front end reads only FrontEndConfig", fset.Position(n.Sel.Pos()))
			}
		case *ast.Ident:
			if n.Name == "Config" && !selected[n] {
				t.Errorf("%s: names Config; the front end reads only FrontEndConfig", fset.Position(n.Pos()))
			}
		}
		return true
	})
}

// TestArchAgeingOnlyInKernel: simulated machines get an aged kernel
// from kernel.NewAged, which ages once per key and copies (DESIGN.md
// §2.1), so no non-test file outside internal/kernel calls Prefragment.
func TestArchAgeingOnlyInKernel(t *testing.T) {
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path == "internal/kernel" || name == "testdata" || (name != "." && strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && sel.Sel.Name == "Prefragment" {
					t.Errorf("%s: calls Prefragment; age a kernel with kernel.NewAged", fset.Position(call.Pos()))
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestArchStreamsOnlyInEngine: a recorded front-end stream is keyed,
// shared and released by the experiment engine (DESIGN.md §2.2), so no
// non-test file outside internal/sim calls sim.Record or sim.Replay
// except internal/experiments/engine.go.
func TestArchStreamsOnlyInEngine(t *testing.T) {
	err := filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path == "internal/sim" || name == "testdata" || (name != "." && strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") || path == "internal/experiments/engine.go" {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if sel, ok := call.Fun.(*ast.SelectorExpr); ok && (sel.Sel.Name == "Record" || sel.Sel.Name == "Replay") {
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == "sim" {
						t.Errorf("%s: calls sim.%s; run cells through the experiment engine", fset.Position(call.Pos()), sel.Sel.Name)
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestArchInternalPackagesHaveAnImporter: a package under internal/
// earns its place by serving the commands or another internal package,
// so each one is imported by a non-test file under cmd/ or internal/
// outside itself. Code that only an example uses lives with the example.
func TestArchInternalPackagesHaveAnImporter(t *testing.T) {
	internal := packageDirs(t, "internal")
	imported := map[string]bool{}
	for _, dir := range append(packageDirs(t, "cmd"), internal...) {
		for _, file := range goFiles(t, dir) {
			f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, spec := range f.Imports {
				if path, _ := strconv.Unquote(spec.Path.Value); path != "amnt/"+dir {
					imported[path] = true
				}
			}
		}
	}
	for _, dir := range internal {
		if !imported["amnt/"+dir] {
			t.Errorf("%s: no non-test file under cmd/ or internal/ imports it", dir)
		}
	}
}

// checkNoImports fails for every package of forbidden that a package
// of roots reaches through its non-test imports, directly or through
// other internal packages, naming the import chain.
func checkNoImports(t *testing.T, roots, forbidden []string, what string) {
	t.Helper()
	banned := map[string]bool{}
	for _, p := range forbidden {
		banned["amnt/internal/"+p] = true
	}
	imports := map[string][]string{} // package path -> internal imports, parsed once
	var internalImports func(pkg string) []string
	internalImports = func(pkg string) []string {
		if deps, ok := imports[pkg]; ok {
			return deps
		}
		var deps []string
		for _, file := range goFiles(t, strings.TrimPrefix(pkg, "amnt/")) {
			f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.ImportsOnly)
			if err != nil {
				t.Fatal(err)
			}
			for _, spec := range f.Imports {
				path, _ := strconv.Unquote(spec.Path.Value)
				if strings.HasPrefix(path, "amnt/") {
					deps = append(deps, path)
				}
			}
		}
		imports[pkg] = deps
		return deps
	}
	for _, p := range roots {
		root := "amnt/internal/" + p
		via := map[string]string{root: ""} // package -> the package that imported it
		queue := []string{root}
		for len(queue) > 0 {
			pkg := queue[0]
			queue = queue[1:]
			for _, dep := range internalImports(pkg) {
				if _, seen := via[dep]; seen {
					continue
				}
				via[dep] = pkg
				if banned[dep] {
					chain := []string{dep}
					for at := pkg; at != ""; at = via[at] {
						chain = append([]string{at}, chain...)
					}
					t.Errorf("%s imports %s %s: %s", root, what, dep, strings.Join(chain, " -> "))
					continue
				}
				queue = append(queue, dep)
			}
		}
	}
}

// goFiles lists the non-test Go files of a package directory, sorted.
func goFiles(t *testing.T, dir string) []string {
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		if name := e.Name(); strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			out = append(out, filepath.ToSlash(filepath.Join(dir, name)))
		}
	}
	sort.Strings(out)
	return out
}

// packageDirs lists the directories under root that hold a non-test Go
// file, sorted.
func packageDirs(t *testing.T, root string) []string {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if d.IsDir() && len(goFiles(t, path)) > 0 {
			dirs = append(dirs, filepath.ToSlash(path))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(dirs)
	return dirs
}

// declName names a top-level declaration: Func, Type.Method, or the
// first name a var, const or type declaration introduces.
func declName(decl ast.Decl) string {
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if d.Recv == nil || len(d.Recv.List) == 0 {
			return d.Name.Name
		}
		typ := d.Recv.List[0].Type
		if star, ok := typ.(*ast.StarExpr); ok {
			typ = star.X
		}
		if idx, ok := typ.(*ast.IndexExpr); ok {
			typ = idx.X
		}
		if id, ok := typ.(*ast.Ident); ok {
			return id.Name + "." + d.Name.Name
		}
		return d.Name.Name
	case *ast.GenDecl:
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.TypeSpec:
				return s.Name.Name
			case *ast.ValueSpec:
				return s.Names[0].Name
			}
		}
	}
	return "?"
}
