// Command deadapi, run from the repository root, fails on internal/ API
// and state that only tests read. It type-checks the tree with go/types
// (in-package tests and build constraints included, stdlib from source;
// an external x_test package only adds test readers) and prints
// each package-level name, method and unexported field of a non-test
// internal/ file that no non-test file reads. A use reads what it
// resolves to, never a namesake; a method is also read when its type
// implements a read interface method. Writes are not reads: the left of
// = or op=, ++/--, a composite literal's key, the receiver of a
// sync/atomic Add or Store. Exported fields are not gated
// (encoding/json reads them). Each line of allow.txt exempts a name or
// a file (format in its header), with a reason.
package main

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
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
	if bad := check(".", "scripts/deadapi/allow.txt"); len(bad) > 0 {
		fmt.Println(strings.Join(bad, "\n"))
		os.Exit(1)
	}
}

// stdlibCalled lists the methods a standard-library interface calls.
const stdlibCalled = " String Error Unwrap MarshalJSON UnmarshalJSON Len Less Swap Push Pop Write "

var fset, info = token.NewFileSet(), &types.Info{Uses: map[*ast.Ident]types.Object{}}
var std = importer.ForCompiler(fset, "source", nil)

// pkg is a package: files[false] are checked on import; files[true], its
// in-package tests, join that checker once every package is loaded.
type pkg struct {
	files map[bool][]*ast.File
	chk   *types.Checker
	tp    *types.Package
}

// tree maps import paths to packages, each checked when first imported.
type tree map[string]*pkg

func (t tree) Import(path string) (*types.Package, error) {
	if p := t[path]; p == nil {
		return std.Import(path)
	} else if p.chk == nil {
		p.tp = types.NewPackage(path, append(p.files[false], p.files[true]...)[0].Name.Name)
		p.chk = types.NewChecker(&types.Config{Importer: t}, fset, p.tp, info)
		return p.tp, p.chk.Files(p.files[false])
	}
	return t[path].tp, nil
}

// check returns, sorted, one line per unread declaration under root and
// one per allowlist entry that exempts none, or the error that stopped it.
func check(root, allowFile string) []string {
	paths, pkgs := map[string]string{}, tree{} // paths: import path by directory
	err := filepath.Walk(root, func(p string, fi os.FileInfo, err error) error {
		if err != nil || fi.IsDir() && p != root && (fi.Name()[0] == '.' || fi.Name() == "testdata") {
			return cmp.Or(err, filepath.SkipDir) // the go command skips them too
		} else if fi.IsDir() {
			paths[p] = path.Join(paths[filepath.Dir(p)], fi.Name())
			if mod, err := os.ReadFile(filepath.Join(p, "go.mod")); err == nil {
				paths[p] = strings.Fields(string(mod))[1] // a go.mod starts "module <path>"
			}
			return nil
		} else if ok, err := build.Default.MatchFile(filepath.Dir(p), fi.Name()); !ok || err != nil || !strings.HasSuffix(p, ".go") {
			return err
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil || strings.HasSuffix(f.Name.Name, "_test") {
			return err // an external test package (x_test) only adds test readers, which do not count
		}
		key, inTest := paths[filepath.Dir(p)], strings.HasSuffix(p, "_test.go")
		pkgs[key] = cmp.Or(pkgs[key], &pkg{files: map[bool][]*ast.File{}})
		pkgs[key].files[inTest] = append(pkgs[key].files[inTest], f)
		return nil
	})
	data, rerr := os.ReadFile(allowFile)
	if err = cmp.Or(err, rerr); err != nil {
		return []string{"deadapi: " + err.Error()}
	}
	read, ifaces := map[token.Pos]bool{}, map[*types.Func]*types.Interface{} // read declarations; read interface methods
	for path, p := range pkgs {
		_, err := pkgs.Import(path)
		if err = cmp.Or(err, p.chk.Files(p.files[true])); err != nil {
			return []string{"deadapi: " + err.Error()}
		}
		for _, f := range append(p.files[false], p.files[true]...) {
			name, writes := fset.File(f.Pos()).Name(), map[*ast.Ident]bool{}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						writes[target(lhs)] = n.Tok != token.DEFINE
					}
				case *ast.IncDecStmt:
					writes[target(n.X)] = true
				case *ast.KeyValueExpr:
					v, _ := info.Uses[target(n.Key)].(*types.Var)
					writes[target(n.Key)] = v != nil && v.IsField()
				case *ast.CallExpr:
					sel, _ := n.Fun.(*ast.SelectorExpr)
					if fn, ok := info.Uses[target(n.Fun)].(*types.Func); ok && sel != nil && fn.Pkg() != nil && fn.Pkg().Path() == "sync/atomic" &&
						(strings.HasPrefix(fn.Name(), "Add") || strings.HasPrefix(fn.Name(), "Store")) {
						writes[target(sel.X)] = true                                           // v.f.Add(1), or the package
						writes[target(n.Args[0])] = fn.Type().(*types.Signature).Recv() == nil // atomic.AddInt64(&v.f, 1)
					}
				case *ast.Ident:
					obj := info.Uses[n]
					if obj == nil || writes[n] || strings.HasSuffix(name, "_test.go") {
						break
					} else if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil && types.IsInterface(sig.Recv().Type()) {
						ifaces[obj.(*types.Func)] = sig.Recv().Type().Underlying().(*types.Interface)
					}
					read[obj.Pos()] = true
				}
				return true
			})
		}
	}
	allow, bad := map[string]bool{}, []string(nil) // allow: entry -> exempted an unread declaration
	for _, line := range strings.Split(string(data), "\n") {
		if entry, reason, _ := strings.Cut(line, " "); entry != "" && entry[0] != '#' && reason != "" {
			allow[entry] = false
		}
	}
	unread := func(obj types.Object, key string) {
		pos := fset.Position(obj.Pos())
		file := strings.TrimPrefix(filepath.ToSlash(pos.Filename), root+"/")
		if key = path.Dir(file) + "." + key; !strings.HasPrefix(file, "internal/") || strings.HasSuffix(file, "_test.go") || read[obj.Pos()] {
			return
		} else if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
			for m, iface := range ifaces {
				if m.Name() == obj.Name() && (types.Implements(sig.Recv().Type(), iface) || types.Implements(types.NewPointer(sig.Recv().Type()), iface)) {
					return
				}
			}
		}
		for _, entry := range []string{key, file} {
			if _, ok := allow[entry]; ok {
				allow[entry] = true
				return
			}
		}
		bad = append(bad, fmt.Sprintf("%s:%d: %s", file, pos.Line, key))
	}
	for _, p := range pkgs {
		for _, name := range p.tp.Scope().Names() {
			obj := p.tp.Scope().Lookup(name)
			named, ok := obj.Type().(*types.Named)
			if unread(obj, name); !ok || named.Obj() != obj { // not a type, or an alias
				continue
			}
			for i := range named.NumMethods() {
				if m := named.Method(i); !strings.Contains(stdlibCalled, " "+m.Name()+" ") {
					unread(m, name+"."+m.Name())
				}
			}
			st, _ := named.Underlying().(*types.Struct)
			for i := 0; st != nil && i < st.NumFields(); i++ {
				if f := st.Field(i); !f.Exported() && !f.Embedded() {
					unread(f, name+"."+f.Name())
				}
			}
		}
	}
	for entry, used := range allow {
		if !used {
			bad = append(bad, allowFile+": stale entry "+entry)
		}
	}
	sort.Strings(bad)
	return bad
}

// target returns the identifier an expression names: x, (x), v.x, &v.x.
func target(e ast.Expr) *ast.Ident {
	if u, ok := ast.Unparen(e).(*ast.UnaryExpr); ok {
		return target(u.X)
	} else if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
		return sel.Sel
	}
	id, _ := ast.Unparen(e).(*ast.Ident)
	return id
}
