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
	"internal/kernel/buddy.go:Allocator.Restructure":     "per restructuring pass",
	"internal/kernel/buddy.go:Allocator.CheckInvariants": "test and debug check",
	"internal/kernel/kernel.go:Kernel":                   "process table, touched per process",
	"internal/kernel/kernel.go:New":                      "builds that table",
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
	serving := map[string]bool{}
	for _, p := range servingPackages {
		serving["amnt/internal/"+p] = true
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
	for _, p := range simulatorPackages {
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
				if serving[dep] {
					chain := []string{dep}
					for at := pkg; at != ""; at = via[at] {
						chain = append([]string{at}, chain...)
					}
					t.Errorf("%s imports serving package %s: %s", root, dep, strings.Join(chain, " -> "))
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
