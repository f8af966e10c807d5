// Command doccheck fails when an exported identifier in the named packages
// lacks a doc comment. CI runs it over every package of the module
// outside cmd/ and tools/ so the godoc surface cannot rot.
//
//	go run ./tools/doccheck ./flashsim ./internal/scenario ./internal/stats
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: doccheck <package dir>...")
		os.Exit(2)
	}
	bad := 0
	for _, dir := range os.Args[1:] {
		bad += checkDir(dir)
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "doccheck: %d exported identifiers lack doc comments\n", bad)
		os.Exit(1)
	}
}

func checkDir(dir string) int {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		fmt.Fprintf(os.Stderr, "doccheck: %v\n", err)
		os.Exit(2)
	}
	bad := 0
	for _, pkg := range pkgs {
		for path, f := range pkg.Files {
			bad += checkFile(fset, filepath.ToSlash(path), f)
		}
	}
	return bad
}

func report(fset *token.FileSet, pos token.Pos, kind, name string) {
	p := fset.Position(pos)
	fmt.Printf("%s:%d: exported %s %s has no doc comment\n", p.Filename, p.Line, kind, name)
}

func checkFile(fset *token.FileSet, path string, f *ast.File) int {
	bad := 0
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Name.IsExported() && exportedRecv(d) && d.Doc == nil {
				report(fset, d.Pos(), "function", d.Name.Name)
				bad++
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
						report(fset, s.Pos(), "type", s.Name.Name)
						bad++
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() && d.Doc == nil && s.Doc == nil && s.Comment == nil {
							report(fset, n.Pos(), "value", n.Name)
							bad++
						}
					}
				}
			}
		}
	}
	return bad
}

// exportedRecv reports whether a method's receiver type is exported (an
// exported method on an unexported type is not part of the godoc surface).
func exportedRecv(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr:
			t = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return true
		}
	}
}
