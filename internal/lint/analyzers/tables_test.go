package analyzers

import (
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRegistrationTablesNameDeclaredFuncs checks that every function
// the hotzero and poolsafe tables register is declared in the
// non-test sources of the package it names — the module's own
// packages, or the standard library for rows such as container/heap.
// A row whose function was renamed or deleted would otherwise sit in
// the table matching nothing, certifying a hot path that no longer
// exists.
func TestRegistrationTablesNameDeclaredFuncs(t *testing.T) {
	moduleRoot, err := filepath.Abs(filepath.Join("..", "..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	var refs []funcRef
	refs = append(refs, hotCertified...)
	refs = append(refs, handoffSinks...)
	for _, p := range poolTable {
		refs = append(refs, p.acquires...)
		refs = append(refs, p.releases...)
	}
	decls := map[string]map[string]bool{} // package dir -> "Recv.Name" or "Name"
	for _, ref := range refs {
		dir := filepath.Join(moduleRoot, filepath.FromSlash(ref.pkg))
		if _, err := os.Stat(dir); err != nil {
			bp, err := build.Import(ref.pkg, "", build.FindOnly)
			if err != nil {
				t.Errorf("%v: package %s is neither in the module nor in the standard library", ref, ref.pkg)
				continue
			}
			dir = bp.Dir
		}
		if decls[dir] == nil {
			decls[dir] = declaredFuncs(t, dir)
		}
		key := ref.name
		if ref.recv != "" {
			key = ref.recv + "." + ref.name
		}
		if !decls[dir][key] {
			t.Errorf("table row {%q, %q, %q}: no such function in %s", ref.pkg, ref.recv, ref.name, dir)
		}
	}
}

// declaredFuncs parses the non-test Go files of dir and returns every
// declared function ("Name"), method ("Recv.Name") and interface
// method ("Iface.Name").
func declaredFuncs(t *testing.T, dir string) map[string]bool {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]bool{}
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					out[d.Name.Name] = true
				} else {
					out[recvTypeName(d.Recv.List[0].Type)+"."+d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					ts, ok := spec.(*ast.TypeSpec)
					if !ok {
						continue
					}
					it, ok := ts.Type.(*ast.InterfaceType)
					if !ok {
						continue
					}
					for _, m := range it.Methods.List {
						for _, n := range m.Names {
							out[ts.Name.Name+"."+n.Name] = true
						}
					}
				}
			}
		}
	}
	return out
}

// recvTypeName strips the pointer from a receiver type.
func recvTypeName(e ast.Expr) string {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}
