// Command deadapi, run from the repository root, fails on internal/ API
// whose only readers are its own package's tests. It prints each
// top-level declaration of a non-test file under internal/ that no
// non-test file and no other package's test reads, skipping testdata and
// hidden directories. A same-package identifier or a package-qualified
// selector reads a func, type, var or const; a selector of its name
// reads a method. Each line of allow.txt exempts a name
// (internal/pkg.Name, internal/pkg.Recv.Method) or a file, given a reason
// after it; an entry that exempts nothing is printed too.
package main

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	bad, err := check(".", "scripts/deadapi/allow.txt")
	if err != nil {
		bad = append(bad, "deadapi: "+err.Error())
	}
	if len(bad) > 0 {
		fmt.Println(strings.Join(bad, "\n"))
		os.Exit(1)
	}
}

// stdlibCalled lists the methods a standard-library interface calls.
const stdlibCalled = " String Error Unwrap MarshalJSON UnmarshalJSON Len Less Swap Push Pop Write "

// check returns, sorted, one line per unread declaration under root and
// one per allowlist entry that exempts none.
func check(root, allowFile string) ([]string, error) {
	type decl struct{ dir, key, read, file, pos string }
	var decls []decl
	uses := map[string]int{} // reads of a use key; key@dir counts those by dir's tests
	fset := token.NewFileSet()
	err := filepath.Walk(root, func(p string, fi os.FileInfo, err error) error {
		if err == nil && fi.IsDir() && p != root && (fi.Name()[0] == '.' || fi.Name() == "testdata") {
			return filepath.SkipDir // the go command skips them too
		}
		rel := strings.TrimPrefix(filepath.ToSlash(p), root+"/")
		if err != nil || !strings.HasSuffix(rel, ".go") {
			return err
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir, test := path.Dir(rel), strings.HasSuffix(rel, "_test.go")
		self := map[*ast.Ident]bool{} // declared and selected names: not same-package reads
		add := func(id *ast.Ident, key, read string) {
			self[id] = true
			if id.Name != "_" && id.Name != "init" && !test && strings.HasPrefix(dir, "internal/") {
				decls = append(decls, decl{dir, dir + "." + key, read, rel, fmt.Sprintf("%s:%d", rel, fset.Position(id.Pos()).Line)})
			}
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil {
				add(fd.Name, fd.Name.Name, dir+"."+fd.Name.Name)
			} else if ok && !strings.Contains(stdlibCalled, " "+fd.Name.Name+" ") {
				recv := strings.TrimPrefix(types.ExprString(fd.Recv.List[0].Type), "*")
				add(fd.Name, recv+"."+fd.Name.Name, "."+fd.Name.Name)
			} else if gd, ok := d.(*ast.GenDecl); ok {
				for _, s := range gd.Specs {
					if ts, ok := s.(*ast.TypeSpec); ok {
						add(ts.Name, ts.Name.Name, dir+"."+ts.Name.Name)
					} else if vs, ok := s.(*ast.ValueSpec); ok {
						for _, id := range vs.Names {
							add(id, id.Name, dir+"."+id.Name)
						}
					}
				}
			}
		}
		imports := map[string]string{} // local name -> import path, from internal/ on
		for _, im := range f.Imports {
			p := strings.Trim(im.Path.Value, `"`)
			imports[cmp.Or(im.Name, ast.NewIdent(path.Base(p))).Name] = p[max(0, strings.Index(p, "internal/")):]
		}
		ast.Inspect(f, func(n ast.Node) bool {
			key := ""
			if sel, ok := n.(*ast.SelectorExpr); ok {
				self[sel.Sel], key = true, "."+sel.Sel.Name // Inspect visits Sel next
				if x, ok := sel.X.(*ast.Ident); ok {
					key = imports[x.Name] + key // ".Sel" unless x names a package
				}
			} else if id, ok := n.(*ast.Ident); ok && !self[id] {
				key = dir + "." + id.Name
			}
			uses[key]++
			if test {
				uses[key+"@"+dir]++
			}
			return true
		})
		return nil
	})
	data, rerr := os.ReadFile(allowFile)
	if err = cmp.Or(err, rerr); err != nil {
		return nil, err
	}
	allow := map[string]bool{} // entry -> exempted an unread declaration
	for _, line := range strings.Split(string(data), "\n") {
		if entry, reason, _ := strings.Cut(line, " "); entry != "" && entry[0] != '#' && reason != "" {
			allow[entry] = false
		}
	}
	var bad []string
	for _, d := range decls {
		if uses[d.read] > uses[d.read+"@"+d.dir] {
			continue
		} else if _, ok := allow[d.key]; ok {
			allow[d.key] = true
		} else if _, ok := allow[d.file]; ok {
			allow[d.file] = true
		} else {
			bad = append(bad, d.pos+": "+d.key)
		}
	}
	for entry, used := range allow {
		if !used {
			bad = append(bad, allowFile+": stale entry "+entry)
		}
	}
	sort.Strings(bad)
	return bad, nil
}
