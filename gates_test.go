package dmpc

// The source gates read the module's own Go. One type-check of every
// non-test package, bench/, cmd/ and examples/ included, serves them all.

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// srcFile is one parsed Go file and the import path of its directory.
type srcFile struct {
	path string
	test bool // a _test.go file: parsed, never type-checked
	f    *ast.File
}

// checked is one type-check of a module's non-test Go. An import of a
// module package resolves to that package's own check, so every
// declaration has exactly one object and one Info holds every package.
type checked struct {
	root  string // printed positions are relative to it
	fset  *token.FileSet
	files []srcFile
	pkgs  map[string]*types.Package // by import path
	info  *types.Info
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// checkSource type-checks the non-test files of files, one package per
// import path. Any import outside them is the standard library, which is
// type-checked from GOROOT's source.
func checkSource(fset *token.FileSet, files []srcFile) (*checked, error) {
	c := &checked{fset: fset, files: files, pkgs: map[string]*types.Package{}, info: &types.Info{
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}}
	byPath := map[string][]*ast.File{}
	for _, sf := range files {
		if !sf.test {
			byPath[sf.path] = append(byPath[sf.path], sf.f)
		}
	}
	std := importer.ForCompiler(fset, "source", nil)
	var check func(path string) (*types.Package, error)
	conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
		if _, ok := byPath[path]; ok {
			return check(path)
		}
		return std.Import(path)
	})}
	check = func(path string) (*types.Package, error) {
		if p, ok := c.pkgs[path]; ok {
			return p, nil
		}
		p, err := conf.Check(path, fset, byPath[path], c.info)
		if err != nil {
			return nil, fmt.Errorf("type-checking %s: %v", path, err)
		}
		c.pkgs[path] = p
		return p, nil
	}
	for path := range byPath {
		if _, err := check(path); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// modulePath is the root package's import path: the facade.
const modulePath = "dmpc"

var moduleCheck = sync.OnceValues(func() (*checked, error) {
	root, err := filepath.Abs(".")
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var files []srcFile
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, filepath.Dir(path))
		imp := modulePath
		if rel != "." {
			imp += "/" + filepath.ToSlash(rel)
		}
		files = append(files, srcFile{path: imp, test: strings.HasSuffix(name, "_test.go"), f: f})
		return nil
	})
	if err != nil {
		return nil, err
	}
	c, err := checkSource(fset, files)
	if err != nil {
		return nil, err
	}
	c.root = root
	return c, nil
})

// loadModule returns the shared check of this module (bench/'s module,
// whose path dmpc/bench is its directory, included).
func loadModule(t *testing.T) *checked {
	c, err := moduleCheck()
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// where prints a position relative to c.root.
func (c *checked) where(p token.Pos) string {
	return strings.TrimPrefix(c.fset.Position(p).String(), c.root+string(filepath.Separator))
}

// deprecatedFields are struct fields nothing in the module reads on
// purpose: the Backend knobs are no-ops kept so bench/ still compiles
// against them.
var deprecatedFields = map[string]bool{
	"mpc.Config.Backend":    true,
	"amm.Config.Backend":    true,
	"dmm.Config.Backend":    true,
	"dyncon.Config.Backend": true,
}

// TestNoWriteOnlyFields fails on accounting no program reads: a struct
// field of the module's non-test Go (bench/ included) that is at most
// written — assigned, incremented or set in a composite literal — and
// never read. Test files do not count as readers. Fields declared in
// package main are skipped, because its rows are read by reflection
// (encoding/json), and so are embedded fields.
func TestNoWriteOnlyFields(t *testing.T) {
	c := loadModule(t)
	declared := map[token.Pos]string{} // field position -> pkg.Type.field
	read := map[token.Pos]bool{}       // field positions with a read
	for _, sf := range c.files {
		if sf.test {
			continue
		}
		if sf.f.Name.Name != "main" {
			declareFields(sf.f, declared)
		}
		for _, pos := range fieldReads(sf.f, c.info) {
			read[pos] = true
		}
	}

	var bad []string
	for pos, name := range declared {
		if !read[pos] && !deprecatedFields[name] {
			bad = append(bad, fmt.Sprintf("%s (%s)", name, c.where(pos)))
		}
	}
	sort.Strings(bad)
	if len(bad) > 0 {
		t.Fatalf("%d write-only struct fields; read each or delete it:\n\t%s", len(bad), strings.Join(bad, "\n\t"))
	}
}

// declareFields files every named field of f's struct types under its
// declaration position, labelled package.Type.field.
func declareFields(f *ast.File, declared map[token.Pos]string) {
	ast.Inspect(f, func(n ast.Node) bool {
		spec, ok := n.(*ast.TypeSpec)
		if !ok {
			return true
		}
		ast.Inspect(spec.Type, func(n ast.Node) bool {
			if st, ok := n.(*ast.StructType); ok {
				for _, fld := range st.Fields.List {
					for _, id := range fld.Names {
						declared[id.Pos()] = f.Name.Name + "." + spec.Name.Name + "." + id.Name
					}
				}
			}
			return true
		})
		return false
	})
}

// fieldReads returns the declaration positions of the fields f reads: every
// field selection except the target of an assignment or an increment, and
// no composite-literal key.
func fieldReads(f *ast.File, info *types.Info) []token.Pos {
	written := map[*ast.SelectorExpr]bool{}
	target := func(e ast.Expr) {
		if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
			written[sel] = true
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, e := range s.Lhs {
				target(e)
			}
		case *ast.IncDecStmt:
			target(s.X)
		}
		return true
	})
	var reads []token.Pos
	ast.Inspect(f, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && !written[sel] {
			if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
				reads = append(reads, s.Obj().Pos())
			}
		}
		return true
	})
	return reads
}

// TestNoUnreachedDecls fails on code no program reaches: a package-level
// func, type, var or const of the module's non-test Go that is referenced
// neither from non-test Go outside its own declaration, nor from a test
// in another directory (a shared oracle, fuzz source or validator), and
// is not an exported name of the facade. A type's methods are part of its
// declaration. main and init are exempt; methods are not judged.
func TestNoUnreachedDecls(t *testing.T) {
	c := loadModule(t)
	var bad []string
	for _, obj := range unreachedDecls(c, modulePath) {
		bad = append(bad, fmt.Sprintf("%s.%s (%s)", obj.Pkg().Name(), obj.Name(), c.where(obj.Pos())))
	}
	if len(bad) > 0 {
		t.Fatalf("%d package-level declarations nothing reaches; use each or delete it:\n\t%s", len(bad), strings.Join(bad, "\n\t"))
	}
}

// unreachedDecls returns the package-level declarations of c that nothing
// reaches (see TestNoUnreachedDecls), in position order. facade is the
// import path whose exported names are exempt.
func unreachedDecls(c *checked, facade string) []types.Object {
	type span struct{ from, to token.Pos }
	own := map[types.Object][]span{}
	methods := map[types.Object][]span{} // receiver type -> its method declarations
	for _, sf := range c.files {
		if sf.test {
			continue
		}
		add := func(id *ast.Ident, n ast.Node) {
			if obj := c.info.Defs[id]; obj != nil && obj.Name() != "_" {
				own[obj] = append(own[obj], span{n.Pos(), n.End()})
			}
		}
		for _, d := range sf.f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv != nil {
					t := c.info.Defs[d.Name].Type().(*types.Signature).Recv().Type()
					if p, ok := t.(*types.Pointer); ok {
						t = p.Elem()
					}
					if n, ok := t.(*types.Named); ok {
						methods[n.Origin().Obj()] = append(methods[n.Origin().Obj()], span{d.Pos(), d.End()})
					}
				} else if d.Name.Name != "main" && d.Name.Name != "init" {
					add(d.Name, d)
				}
			case *ast.GenDecl:
				for _, s := range d.Specs {
					switch s := s.(type) {
					case *ast.TypeSpec:
						add(s.Name, s)
					case *ast.ValueSpec:
						for _, id := range s.Names {
							add(id, s)
						}
					}
				}
			}
		}
	}
	for obj, m := range methods {
		if _, ok := own[obj]; ok {
			own[obj] = append(own[obj], m...)
		}
	}

	reached := map[types.Object]bool{}
	for id, obj := range c.info.Uses {
		if f, ok := obj.(*types.Func); ok {
			obj = f.Origin()
		}
		spans, ok := own[obj]
		if !ok || reached[obj] {
			continue
		}
		inside := false
		for _, s := range spans {
			inside = inside || s.from <= id.Pos() && id.Pos() < s.to
		}
		reached[obj] = !inside
	}

	// A test names another directory's declarations only through that
	// package's import name, so its references are read from its syntax.
	testRefs := map[string]bool{} // import path + "." + name
	for _, sf := range c.files {
		if !sf.test {
			continue
		}
		imports := map[string]string{} // import name -> path
		for _, spec := range sf.f.Imports {
			path, _ := strconv.Unquote(spec.Path.Value)
			if p := c.pkgs[path]; p != nil && path != sf.path {
				name := p.Name()
				if spec.Name != nil {
					name = spec.Name.Name
				}
				imports[name] = path
			}
		}
		ast.Inspect(sf.f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if x, ok := sel.X.(*ast.Ident); ok && imports[x.Name] != "" {
					testRefs[imports[x.Name]+"."+sel.Sel.Name] = true
				}
			}
			return true
		})
	}

	var bad []types.Object
	for obj := range own {
		path := obj.Pkg().Path()
		if reached[obj] || testRefs[path+"."+obj.Name()] || path == facade && obj.Exported() {
			continue
		}
		bad = append(bad, obj)
	}
	sort.Slice(bad, func(i, j int) bool {
		a, b := c.fset.Position(bad[i].Pos()), c.fset.Position(bad[j].Pos())
		return a.Filename < b.Filename || a.Filename == b.Filename && a.Offset < b.Offset
	})
	return bad
}

// TestUnreachedDeclsGateTrips runs the checker over a small module: it
// must name the orphan, the func only its own body calls, the func only
// its own directory's tests call and the type only its own methods name,
// and nothing else.
func TestUnreachedDeclsGateTrips(t *testing.T) {
	fset := token.NewFileSet()
	var files []srcFile
	for _, src := range []struct{ path, name, text string }{
		{"fix", "fix/fix.go", `package fix

import "fix/lib"

func Exported() int { return lib.Used() }
`},
		{"fix/lib", "fix/lib/lib.go", `package lib

func Used() int { return 1 }

func Orphan() int { return 2 }

func Recursive(n int) int {
	if n == 0 {
		return 0
	}
	return Recursive(n - 1)
}

func OwnTestsOnly() int { return 3 }

func Oracle() int { return 4 }

type selfNamed struct{ next *selfNamed }

func (s *selfNamed) walk() *selfNamed { return s.next }
`},
		{"fix/lib", "fix/lib/lib_test.go", `package lib

func TestInternal() { OwnTestsOnly() }
`},
		{"fix/lib", "fix/lib/ext_test.go", `package lib_test

import "fix/lib"

func TestExternal() { lib.OwnTestsOnly() }
`},
		{"fix/other", "fix/other/other_test.go", `package other

import "fix/lib"

func TestOracle() { lib.Oracle() }
`},
	} {
		f, err := parser.ParseFile(fset, src.name, src.text, 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, srcFile{path: src.path, test: strings.HasSuffix(src.name, "_test.go"), f: f})
	}
	c, err := checkSource(fset, files)
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, obj := range unreachedDecls(c, "fix") {
		got = append(got, obj.Pkg().Name()+"."+obj.Name())
	}
	want := []string{"lib.Orphan", "lib.Recursive", "lib.OwnTestsOnly", "lib.selfNamed"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("unreached = %v, want %v", got, want)
	}
}
