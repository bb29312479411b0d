package dmpc

// The source gates read the module's own Go. One type-check of every
// non-test package, bench/, cmd/ and examples/ included, serves them all;
// the tests are type-checked once beside it, so both reach gates resolve
// what a test uses by type, not by spelling.

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
)

// srcFile is one parsed Go file and the import path of its directory.
type srcFile struct {
	path string
	test bool // a _test.go file: type-checked only for testRefs
	f    *ast.File
}

// checked is one type-check of a module's non-test Go. An import of a
// module package resolves to that package's own check, so every
// declaration has exactly one object and one Info holds every package.
// The tests are type-checked apart, directory by directory; what they use
// is kept only as testRefs.
type checked struct {
	root  string // printed positions are relative to it
	fset  *token.FileSet
	files []srcFile
	pkgs  map[string]*types.Package // by import path
	info  *types.Info
	// testRefs holds the declaration position of every non-test object a
	// test file of another directory uses (a method by its generic origin).
	testRefs map[token.Pos]bool
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// checkSource type-checks the non-test files of files, one package per
// import path, and then each directory's tests (see checkTests). Any
// import outside them is the standard library, which is type-checked from
// GOROOT's source.
func checkSource(fset *token.FileSet, files []srcFile) (*checked, error) {
	c := &checked{fset: fset, files: files, pkgs: map[string]*types.Package{}, info: &types.Info{
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Types:      map[ast.Expr]types.TypeAndValue{},
		Instances:  map[*ast.Ident]types.Instance{},
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
	return c, c.checkTests(std, byPath)
}

// checkTests type-checks each directory's tests as go test builds them:
// the in-package test files together with the directory's non-test files,
// then the external _test package, which imports that augmented package.
// Every other import resolves to the module check or the standard library,
// so an object the tests use from another directory is the module check's
// own, and one re-declared by the augmented package has the same position.
// It records in c.testRefs what each directory's tests use from another.
func (c *checked) checkTests(std types.Importer, byPath map[string][]*ast.File) error {
	inPkg, ext := map[string][]*ast.File{}, map[string][]*ast.File{}
	var dirs []string
	for _, sf := range c.files {
		if !sf.test {
			continue
		}
		if len(inPkg[sf.path])+len(ext[sf.path]) == 0 {
			dirs = append(dirs, sf.path)
		}
		if strings.HasSuffix(sf.f.Name.Name, "_test") {
			ext[sf.path] = append(ext[sf.path], sf.f)
		} else {
			inPkg[sf.path] = append(inPkg[sf.path], sf.f)
		}
	}
	c.testRefs = map[token.Pos]bool{}
	for _, dir := range dirs {
		info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
		own := c.pkgs[dir]
		conf := types.Config{Importer: importerFunc(func(path string) (*types.Package, error) {
			if path == dir {
				return own, nil
			}
			if p := c.pkgs[path]; p != nil {
				return p, nil
			}
			return std.Import(path)
		})}
		if files := inPkg[dir]; len(files) > 0 {
			p, err := conf.Check(dir, c.fset, append(append([]*ast.File{}, byPath[dir]...), files...), info)
			if err != nil {
				return fmt.Errorf("type-checking %s's tests: %v", dir, err)
			}
			own = p
		}
		if files := ext[dir]; len(files) > 0 {
			if _, err := conf.Check(dir+"_test", c.fset, files, info); err != nil {
				return fmt.Errorf("type-checking %s_test: %v", dir, err)
			}
		}
		for _, f := range append(inPkg[dir], ext[dir]...) {
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					if obj := info.Uses[id]; obj != nil && obj.Pkg() != nil && obj.Pkg().Path() != dir {
						c.testRefs[origin(obj).Pos()] = true
					}
				}
				return true
			})
		}
	}
	return nil
}

// origin is obj, or the generic method or function it instantiates.
func origin(obj types.Object) types.Object {
	if f, ok := obj.(*types.Func); ok {
		return f.Origin()
	}
	return obj
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
// declaration. main and init are exempt; TestNoUnreachedMethods judges
// methods.
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
		obj = origin(obj)
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

	var bad []types.Object
	for obj := range own {
		path := obj.Pkg().Path()
		if reached[obj] || c.testRefs[obj.Pos()] || path == facade && obj.Exported() {
			continue
		}
		bad = append(bad, obj)
	}
	c.sortByPos(bad)
	return bad
}

// sortByPos orders objs by file, then by offset.
func (c *checked) sortByPos(objs []types.Object) {
	sort.Slice(objs, func(i, j int) bool {
		a, b := c.fset.Position(objs[i].Pos()), c.fset.Position(objs[j].Pos())
		return a.Filename < b.Filename || a.Filename == b.Filename && a.Offset < b.Offset
	})
}

// TestNoUnreachedMethods fails on a method of the module's non-test Go
// that no program reaches: one that non-test Go outside its own body never
// names, that satisfies no interface non-test Go uses through a method it
// lists, that no test in another directory uses, and that is not an
// exported method of a type the facade declares. A method only its own
// directory's tests call belongs in a _test.go file of its package.
func TestNoUnreachedMethods(t *testing.T) {
	c := loadModule(t)
	var bad []string
	for _, obj := range unreachedMethods(c, modulePath) {
		bad = append(bad, fmt.Sprintf("%s (%s)", methodName(obj), c.where(obj.Pos())))
	}
	if len(bad) > 0 {
		t.Fatalf("%d methods nothing reaches; call each, move it beside its tests or delete it:\n\t%s", len(bad), strings.Join(bad, "\n\t"))
	}
}

// methodName labels a method package.Type.method.
func methodName(obj types.Object) string {
	recv := obj.Type().(*types.Signature).Recv().Type()
	if p, ok := recv.(*types.Pointer); ok {
		recv = p.Elem()
	}
	return obj.Pkg().Name() + "." + recv.(*types.Named).Obj().Name() + "." + obj.Name()
}

// unreachedMethods returns the methods of c's non-test Go that nothing
// reaches (see TestNoUnreachedMethods), in position order. facade is the
// import path whose types' exported methods are exempt.
func unreachedMethods(c *checked, facade string) []types.Object {
	type span struct{ from, to token.Pos }
	body := map[types.Object]span{}
	for _, sf := range c.files {
		if sf.test {
			continue
		}
		for _, d := range sf.f.Decls {
			if d, ok := d.(*ast.FuncDecl); ok && d.Recv != nil {
				body[c.info.Defs[d.Name]] = span{d.Pos(), d.End()}
			}
		}
	}

	reached := map[types.Object]bool{}
	for id, obj := range c.info.Uses {
		if s, ok := body[origin(obj)]; ok && (id.Pos() < s.from || s.to <= id.Pos()) {
			reached[origin(obj)] = true
		}
	}

	// A method an interface lists is reached through every type that
	// satisfies it: a named type of the module, a pointer to one, or an
	// instance of a generic one. types.Satisfies is types.Implements
	// extended to constraints, whose type sets Implements refuses.
	var named []*types.Named
	for _, obj := range c.info.Defs {
		if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
			if n, ok := tn.Type().(*types.Named); ok && n.TypeParams().Len() == 0 {
				named = append(named, n)
			}
		}
	}
	for _, inst := range c.info.Instances {
		if n, ok := inst.Type.(*types.Named); ok {
			named = append(named, n)
		}
	}
	ifaces := usedInterfaces(c)
	for _, n := range named {
		if types.IsInterface(n) {
			continue
		}
		for _, t := range []types.Type{n, types.NewPointer(n)} {
			for _, in := range ifaces {
				if !types.Satisfies(t, in) {
					continue
				}
				for i := 0; i < in.NumMethods(); i++ {
					m := in.Method(i)
					if obj, _, _ := types.LookupFieldOrMethod(t, false, m.Pkg(), m.Name()); obj != nil {
						reached[origin(obj)] = true
					}
				}
			}
		}
	}

	var bad []types.Object
	for obj := range body {
		if reached[obj] || c.testRefs[obj.Pos()] || obj.Pkg().Path() == facade && obj.Exported() {
			continue
		}
		bad = append(bad, obj)
	}
	c.sortByPos(bad)
	return bad
}

// usedInterfaces returns the interfaces with methods that c's non-test Go
// uses: each interface type its expressions and type expressions are
// built from (a parameter's, a result's, an element's or a field's type,
// named or anonymous), each interface an imported package outside the
// module exports (fmt asserts its Stringer on what it prints), and each
// type parameter's constraint as one of its instantiations fills it in.
func usedInterfaces(c *checked) []*types.Interface {
	var out []*types.Interface
	seen := map[types.Type]bool{}
	add := func(t types.Type) {
		if in, ok := t.Underlying().(*types.Interface); ok && in.NumMethods() > 0 {
			out = append(out, in)
		}
	}
	var walk func(t types.Type)
	walk = func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Alias:
			walk(types.Unalias(t))
		case *types.Named:
			if types.IsInterface(t) {
				add(t)
			}
			for i := 0; i < t.TypeArgs().Len(); i++ {
				walk(t.TypeArgs().At(i))
			}
		case *types.Interface:
			add(t)
		case *types.Pointer:
			walk(t.Elem())
		case *types.Slice:
			walk(t.Elem())
		case *types.Array:
			walk(t.Elem())
		case *types.Chan:
			walk(t.Elem())
		case *types.Map:
			walk(t.Key())
			walk(t.Elem())
		case *types.Signature:
			walk(t.Params())
			walk(t.Results())
		case *types.Tuple:
			for i := 0; i < t.Len(); i++ {
				walk(t.At(i).Type())
			}
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				walk(t.Field(i).Type())
			}
		}
	}
	for _, tv := range c.info.Types {
		walk(tv.Type)
	}
	for _, p := range c.pkgs {
		for _, imp := range p.Imports() {
			if c.pkgs[imp.Path()] == nil {
				for _, name := range imp.Scope().Names() {
					if tn, ok := imp.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
						walk(tn.Type())
					}
				}
			}
		}
	}
	for id, inst := range c.info.Instances {
		var tparams *types.TypeParamList
		switch g := c.info.Uses[id].(type) {
		case *types.Func:
			tparams = g.Origin().Type().(*types.Signature).TypeParams()
		case *types.TypeName:
			tparams = g.Type().(*types.Named).TypeParams()
		}
		for i := 0; i < tparams.Len(); i++ {
			add(instantiate(tparams.At(i).Constraint(), tparams, inst.TypeArgs))
		}
	}
	return out
}

// instantiate fills the type parameters of tparams in constraint in with
// targs. A constraint is a named generic interface, such as ringed[T], or
// one that names no type parameter; any other comes back as it is.
func instantiate(constraint types.Type, tparams *types.TypeParamList, targs *types.TypeList) types.Type {
	n, ok := constraint.(*types.Named)
	if !ok || n.TypeArgs().Len() == 0 {
		return constraint
	}
	args := make([]types.Type, n.TypeArgs().Len())
	for i := range args {
		args[i] = n.TypeArgs().At(i)
		if tp, ok := args[i].(*types.TypeParam); ok && tp.Index() < tparams.Len() && tparams.At(tp.Index()) == tp {
			args[i] = targs.At(tp.Index())
		}
	}
	inst, err := types.Instantiate(nil, n.Origin(), args, false)
	if err != nil {
		return constraint
	}
	return inst
}

// fixFile is one file of an in-memory module; its import path is its
// directory.
type fixFile struct{ name, text string }

// checkFixture type-checks an in-memory module.
func checkFixture(t *testing.T, srcs []fixFile) *checked {
	t.Helper()
	fset := token.NewFileSet()
	var files []srcFile
	for _, src := range srcs {
		f, err := parser.ParseFile(fset, src.name, src.text, 0)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, srcFile{path: path.Dir(src.name), test: strings.HasSuffix(src.name, "_test.go"), f: f})
	}
	c, err := checkSource(fset, files)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestUnreachedDeclsGateTrips runs the checker over a small module: it
// must name the orphan, the func only its own body calls, the func only
// its own directory's tests call and the type only its own methods name,
// and nothing else.
func TestUnreachedDeclsGateTrips(t *testing.T) {
	c := checkFixture(t, []fixFile{
		{"fix/fix.go", `package fix

import "fix/lib"

func Exported() int { return lib.Used() }
`},
		{"fix/lib/lib.go", `package lib

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
		{"fix/lib/lib_test.go", `package lib

func TestInternal() { OwnTestsOnly() }
`},
		{"fix/lib/ext_test.go", `package lib_test

import "fix/lib"

func TestExternal() { lib.OwnTestsOnly() }
`},
		{"fix/other/other_test.go", `package other

import "fix/lib"

func TestOracle() { lib.Oracle() }
`},
	})
	var got []string
	for _, obj := range unreachedDecls(c, "fix") {
		got = append(got, obj.Pkg().Name()+"."+obj.Name())
	}
	want := []string{"lib.Orphan", "lib.Recursive", "lib.OwnTestsOnly", "lib.selfNamed"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("unreached = %v, want %v", got, want)
	}
}

// TestUnreachedMethodsGateTrips runs the method checker over a small
// module. It must name the orphan, the method only its own body calls,
// the methods only their own directory's tests call (one per test
// package) and the method that shares an interface's method name but not
// its signature. It must not name a method a program calls, one reached
// only through an anonymous interface or only through a generic
// constraint, one a test in another directory reaches through a field
// chain without importing its package, or an exported method of a facade
// type.
func TestUnreachedMethodsGateTrips(t *testing.T) {
	c := checkFixture(t, []fixFile{
		{"fix/fix.go", `package fix

import "fix/lib"

type Outer struct{ in lib.Inner }

func (o *Outer) Size() int { return 0 }

func New() *Outer { return &Outer{} }

func Run() int { return lib.Used() }
`},
		{"fix/fix_test.go", `package fix

func TestChain() { New().in.Audit() }
`},
		{"fix/lib/lib.go", `package lib

type T struct{}

func (T) Called() int { return 1 }

func (T) Orphan() int { return 2 }

func (t T) Recurse(n int) int {
	if n == 0 {
		return 0
	}
	return t.Recurse(n - 1)
}

func (T) OwnInternal() int { return 3 }

func (T) OwnExternal() int { return 4 }

type Inner struct{}

func (Inner) Audit() int { return 5 }

type sized struct{}

func (sized) words() int { return 6 }

type loud struct{}

func (loud) words() string { return "" }

func send(m interface{ words() int }) int { return m.words() }

type node struct{ next *node }

func (n *node) step() *node { return n.next }

type stepper[T any] interface {
	*T
	step() *T
}

func walk[T any, P stepper[T]](x *T) *T { return P(x).step() }

func Used() int {
	walk(&node{})
	return T{}.Called() + send(sized{})
}
`},
		{"fix/lib/lib_test.go", `package lib

func TestInternal() { T{}.OwnInternal() }
`},
		{"fix/lib/ext_test.go", `package lib_test

import "fix/lib"

func TestExternal() { lib.T{}.OwnExternal() }
`},
	})
	var got []string
	for _, obj := range unreachedMethods(c, "fix") {
		got = append(got, methodName(obj))
	}
	want := []string{"lib.T.Orphan", "lib.T.Recurse", "lib.T.OwnInternal", "lib.T.OwnExternal", "lib.loud.words"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("unreached = %v, want %v", got, want)
	}
}
