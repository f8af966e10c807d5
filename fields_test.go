package repro_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// TestNoWriteOnlyFields fails on a struct field that the library assigns
// but no program ever reads: state that costs memory and a store on every
// update and answers no question. The library is every package of the
// module but cmd/, tools/ and test-support packages (named *test); a
// read anywhere in the module's or the benchmark harness's non-test code
// counts, a read in a test does not.
// An assignment, an increment, a composite-literal key and a write
// through an element or a value-typed sub-field are writes; every other
// use is a read. Embedded fields are exempt, and so is every field of a
// struct with a json tag, which encoding/json reads.
func TestNoWriteOnlyFields(t *testing.T) {
	m := loadModule(t)
	var bad []string
	for _, f := range m.fields {
		if !m.read[f.obj] {
			bad = append(bad, fmt.Sprintf("%s: %s.%s", m.fset.Position(f.obj.Pos()), f.owner, f.obj.Name()))
		}
	}
	sort.Strings(bad)
	for _, b := range bad {
		t.Errorf("field written but never read: %s", b)
	}
}

// listedPackage is the part of go list -json this test uses.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Module     *struct{ Path string }
}

// field is one named, non-embedded field of a library struct.
type field struct {
	owner string // package-qualified name of the declaring type
	obj   *types.Var
}

type module struct {
	fset   *token.FileSet
	info   *types.Info
	listed map[string]*listedPackage
	files  map[string][]*ast.File // module packages' non-test files
	pkgs   map[string]*types.Package
	gc     types.Importer
	fields []field
	read   map[*types.Var]bool
}

// loadModule type-checks every package of the module and of the bench
// harness from source, importing the standard library from the export
// data go list builds, and classifies every field use.
func loadModule(t *testing.T) *module {
	t.Helper()
	m := &module{
		fset:   token.NewFileSet(),
		listed: map[string]*listedPackage{},
		files:  map[string][]*ast.File{},
		pkgs:   map[string]*types.Package{},
		read:   map[*types.Var]bool{},
		info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
	}
	var roots []string
	for _, dir := range []string{".", "bench"} {
		cmd := exec.Command("go", "list", "-export", "-deps", "-json", "./...")
		cmd.Dir = dir
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			t.Fatalf("go list in %s: %v\n%s", dir, err, stderr.Bytes())
		}
		dec := json.NewDecoder(bytes.NewReader(out))
		for {
			p := new(listedPackage)
			if err := dec.Decode(p); err == io.EOF {
				break
			} else if err != nil {
				t.Fatal(err)
			}
			if _, ok := m.listed[p.ImportPath]; !ok && p.Module != nil {
				roots = append(roots, p.ImportPath)
			}
			m.listed[p.ImportPath] = p
		}
	}
	m.gc = importer.ForCompiler(m.fset, "gc", func(path string) (io.ReadCloser, error) {
		p := m.listed[path]
		if p == nil || p.Export == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(p.Export)
	})
	for _, path := range roots {
		if _, err := m.Import(path); err != nil {
			t.Fatal(err)
		}
	}
	for _, path := range roots {
		lib := m.listed[path].Module.Path == "repro" && path != "repro" &&
			!strings.HasPrefix(path, "repro/cmd/") && !strings.HasPrefix(path, "repro/tools/") &&
			!strings.HasSuffix(path, "test")
		for _, f := range m.files[path] {
			if lib {
				m.collectFields(path, f)
			}
			m.collectReads(f)
		}
	}
	return m
}

// Import implements types.Importer: module packages from source, the
// rest from export data.
func (m *module) Import(path string) (*types.Package, error) {
	if p, ok := m.pkgs[path]; ok {
		return p, nil
	}
	lp := m.listed[path]
	if lp == nil || lp.Module == nil {
		return m.gc.Import(path)
	}
	var files []*ast.File
	for _, name := range lp.GoFiles {
		f, err := parser.ParseFile(m.fset, filepath.Join(lp.Dir, name), nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	conf := types.Config{Importer: m}
	pkg, err := conf.Check(path, m.fset, files, m.info)
	if err != nil {
		return nil, err
	}
	m.pkgs[path], m.files[path] = pkg, files
	return pkg, nil
}

// collectFields records the named fields of every struct type declared
// in f, but for embedded fields and structs with a json tag.
func (m *module) collectFields(pkg string, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		spec, ok := n.(*ast.TypeSpec)
		if !ok {
			return true
		}
		ast.Inspect(spec.Type, func(n ast.Node) bool {
			st, ok := n.(*ast.StructType)
			if !ok {
				return true
			}
			for _, fl := range st.Fields.List {
				if fl.Tag != nil {
					tag := strings.Trim(fl.Tag.Value, "`")
					if _, ok := reflect.StructTag(tag).Lookup("json"); ok {
						return true
					}
				}
			}
			for _, fl := range st.Fields.List {
				for _, name := range fl.Names {
					if name.Name != "_" {
						m.fields = append(m.fields, field{pkg + "." + spec.Name.Name, m.info.Defs[name].(*types.Var)})
					}
				}
			}
			return true
		})
		return false
	})
}

// collectReads marks every field that f reads.
func (m *module) collectReads(f *ast.File) {
	writes := map[*ast.SelectorExpr]bool{}
	var written func(e ast.Expr)
	written = func(e ast.Expr) {
		switch x := e.(type) {
		case *ast.ParenExpr:
			written(x.X)
		case *ast.IndexExpr:
			written(x.X)
		case *ast.SelectorExpr:
			sel := m.info.Selections[x]
			if sel == nil || sel.Kind() != types.FieldVal {
				return
			}
			writes[x] = true
			// A store into a value-typed sub-field writes its parent too;
			// through a pointer it reads the parent.
			if _, ptr := m.info.Types[x.X].Type.Underlying().(*types.Pointer); !ptr {
				written(x.X)
			}
		}
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch s := n.(type) {
		case *ast.AssignStmt:
			for _, l := range s.Lhs {
				written(l)
			}
		case *ast.IncDecStmt:
			written(s.X)
		}
		return true
	})
	ast.Inspect(f, func(n ast.Node) bool {
		if x, ok := n.(*ast.SelectorExpr); ok && !writes[x] {
			if sel := m.info.Selections[x]; sel != nil && sel.Kind() == types.FieldVal {
				m.read[sel.Obj().(*types.Var)] = true
			}
		}
		return true
	})
}
