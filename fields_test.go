package dmpc

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

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
// (encoding/json), and so are embedded fields. Each directory is
// type-checked from source; the source importer re-checks every
// dependency with objects of its own, so fields are keyed by declaration
// position.
func TestNoWriteOnlyFields(t *testing.T) {
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	dirs := map[string][]string{}
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
		if strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go") {
			dirs[filepath.Dir(path)] = append(dirs[filepath.Dir(path)], path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	fset := token.NewFileSet()
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	key := func(p token.Pos) string { return fset.Position(p).String() }
	declared := map[string]string{} // field position -> pkg.Type.field
	read := map[string]bool{}       // field positions with a read
	for dir, paths := range dirs {
		var files []*ast.File
		for _, path := range paths {
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		info := &types.Info{Selections: map[*ast.SelectorExpr]*types.Selection{}}
		if _, err := conf.Check(dir, fset, files, info); err != nil {
			t.Fatalf("type-checking %s: %v", dir, err)
		}
		for _, f := range files {
			if f.Name.Name != "main" {
				declareFields(f, key, declared)
			}
			for _, pos := range fieldReads(f, info) {
				read[key(pos)] = true
			}
		}
	}

	var bad []string
	for pos, name := range declared {
		if !read[pos] && !deprecatedFields[name] {
			bad = append(bad, fmt.Sprintf("%s (%s)", name, strings.TrimPrefix(pos, root+string(os.PathSeparator))))
		}
	}
	sort.Strings(bad)
	if len(bad) > 0 {
		t.Fatalf("%d write-only struct fields; read each or delete it:\n\t%s", len(bad), strings.Join(bad, "\n\t"))
	}
}

// declareFields files every named field of f's struct types under its
// declaration position, labelled package.Type.field.
func declareFields(f *ast.File, key func(token.Pos) string, declared map[string]string) {
	ast.Inspect(f, func(n ast.Node) bool {
		spec, ok := n.(*ast.TypeSpec)
		if !ok {
			return true
		}
		ast.Inspect(spec.Type, func(n ast.Node) bool {
			if st, ok := n.(*ast.StructType); ok {
				for _, fld := range st.Fields.List {
					for _, id := range fld.Names {
						declared[key(id.Pos())] = f.Name.Name + "." + spec.Name.Name + "." + id.Name
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
