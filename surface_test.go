package dmpc

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestFacadeSurface pins the package's exported surface — every exported
// constant, variable, function, type, struct field, interface method and
// method (promoted ones included, so methods of unexported receivers
// count) — as a sorted list in testdata/api.txt. A surface change is then
// a reviewed diff of that file, regenerated with
// `go test -run FacadeSurface -update .`, not a hand count.
func TestFacadeSurface(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	var api []string
	add := func(name, line string) {
		if ast.IsExported(name) {
			api = append(api, line)
		}
	}
	for _, f := range pkgs["dmpc"].Files {
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				name := d.Name.Name
				if d.Recv == nil {
					add(name, "func "+name)
				} else if star, ok := d.Recv.List[0].Type.(*ast.StarExpr); ok {
					add(name, "method (*"+star.X.(*ast.Ident).Name+")."+name)
				} else {
					add(name, "method "+d.Recv.List[0].Type.(*ast.Ident).Name+"."+name)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range s.Names {
							add(n.Name, d.Tok.String()+" "+n.Name)
						}
					case *ast.TypeSpec:
						add(s.Name.Name, "type "+s.Name.Name)
						if !s.Name.IsExported() {
							continue
						}
						kind, members := "field ", []*ast.Field(nil)
						switch tt := s.Type.(type) {
						case *ast.StructType:
							members = tt.Fields.List
						case *ast.InterfaceType:
							kind, members = "method ", tt.Methods.List
						}
						for _, m := range members {
							for _, n := range m.Names {
								add(n.Name, kind+s.Name.Name+"."+n.Name)
							}
						}
					}
				}
			}
		}
	}
	sort.Strings(api)
	got := strings.Join(api, "\n") + "\n"

	path := filepath.Join("testdata", "api.txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with `go test -run FacadeSurface -update .`)", err)
	}
	if got != string(want) {
		t.Fatalf("exported surface drifted from %s; review the change and re-pin with `go test -run FacadeSurface -update .`\n got:\n%s", path, got)
	}
}
