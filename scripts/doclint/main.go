// Command doclint flags exported identifiers that lack a doc comment.
// It is the `make check` leg that keeps godoc coverage from rotting in
// the packages whose API surface the docs lean on (internal/ebpf's
// program and stats types in particular).
//
// Usage: doclint <dir> [<dir>...]
//
// Each directory is parsed as one package (test files excluded); every
// exported top-level declaration — types, funcs, methods on exported
// types, and each exported const/var name or struct field — must carry
// a doc comment. Violations print as file:line: identifier and make the
// process exit non-zero.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strings"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: doclint <dir> [<dir>...]")
		os.Exit(2)
	}
	bad := 0
	for _, dir := range os.Args[1:] {
		bad += lintDir(dir)
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "doclint: %d exported identifier(s) without doc comments\n", bad)
		os.Exit(1)
	}
}

// lintDir parses every non-test .go file in dir and reports exported
// declarations missing doc comments. Returns the violation count.
func lintDir(dir string) int {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		fmt.Fprintf(os.Stderr, "doclint: %s: %v\n", dir, err)
		return 1
	}
	bad := 0
	report := func(pos token.Pos, what string) {
		fmt.Printf("%s: %s\n", fset.Position(pos), what)
		bad++
	}
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() || !exportedRecv(d) {
						continue
					}
					if d.Doc == nil {
						report(d.Pos(), "exported func "+d.Name.Name)
					}
				case *ast.GenDecl:
					bad += lintGen(d, report)
				}
			}
		}
	}
	return bad
}

// exportedRecv reports whether a func decl is a plain function or a
// method on an exported receiver type; methods on unexported types are
// not part of the package API.
func exportedRecv(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.IsExported()
	}
	return true
}

// lintGen checks a const/var/type block: a doc comment on the block
// covers every spec in it (the ebpf ISA const blocks rely on this);
// without one, each exported type needs its own doc comment and each
// exported const or var its own doc or line comment. Each exported
// field of an exported struct needs its own comment either way.
func lintGen(d *ast.GenDecl, report func(token.Pos, string)) int {
	bad := 0
	r := func(pos token.Pos, what string) {
		report(pos, what)
		bad++
	}
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if !s.Name.IsExported() {
				continue
			}
			if d.Doc == nil && s.Doc == nil {
				r(s.Pos(), "exported type "+s.Name.Name)
			}
			if st, ok := s.Type.(*ast.StructType); ok {
				for _, fld := range st.Fields.List {
					for _, name := range fld.Names {
						if name.IsExported() && fld.Doc == nil && fld.Comment == nil {
							r(name.Pos(), "exported field "+s.Name.Name+"."+name.Name)
						}
					}
				}
			}
		case *ast.ValueSpec:
			for _, name := range s.Names {
				if !name.IsExported() {
					continue
				}
				// A doc comment on the block or the spec (or a trailing
				// line comment) covers the name.
				if d.Doc == nil && s.Doc == nil && s.Comment == nil {
					r(name.Pos(), "exported const/var "+name.Name)
				}
			}
		}
	}
	return bad
}
