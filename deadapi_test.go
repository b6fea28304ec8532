package mapc

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// deadAPIAllowed names exported functions and methods under internal/ that
// stay although no other non-test code names them.
var deadAPIAllowed = map[string]string{
	"Error":         "error interface, called through the interface",
	"Unwrap":        "called by errors.Is/As through the interface",
	"String":        "fmt.Stringer, called by fmt",
	"MarshalJSON":   "json.Marshaler, called by encoding/json",
	"UnmarshalJSON": "json.Unmarshaler, called by encoding/json",
	// Chaos-drill helpers used by tests in other packages, so they cannot
	// live in a _test.go file.
	"RandomKillPlan":    "faultinject plan builder imported by other packages' tests",
	"RandomTearPlan":    "faultinject plan builder imported by other packages' tests",
	"RandomNetworkPlan": "faultinject plan builder imported by other packages' tests",
	"NetSite":           "faultinject site name imported by other packages' tests",
	"SetFaultInjector":  "dataset fault hook; serve's tests install it on a Generator",
}

// TestNoTestOnlyInternalAPI fails on any exported top-level function or
// method under internal/ whose name no non-test Go file references other
// than at its own declaration. Code outside this module cannot import
// internal/, so such a symbol is kept alive only by tests.
func TestNoTestOnlyInternalAPI(t *testing.T) {
	type decl struct{ where, name string }
	fset := token.NewFileSet()
	refs := map[string]int{}     // identifier name -> occurrences
	declared := map[string]int{} // exported internal func name -> declarations
	var decls []decl

	parse := func(path string, recurse bool) {
		err := filepath.WalkDir(path, func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if p != path && !recurse {
					return filepath.SkipDir
				}
				return nil
			}
			if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
				return nil
			}
			f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					refs[id.Name]++
				}
				return true
			})
			if !strings.HasPrefix(filepath.ToSlash(p), "internal/") {
				return nil
			}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				where := filepath.ToSlash(p) + ": " + fd.Name.Name
				if fd.Recv != nil && len(fd.Recv.List) == 1 {
					where = filepath.ToSlash(p) + ": " + recvName(fd.Recv.List[0].Type) + "." + fd.Name.Name
				}
				decls = append(decls, decl{where, fd.Name.Name})
				declared[fd.Name.Name]++
			}
			return nil
		})
		if err != nil {
			t.Fatalf("walking %s: %v", path, err)
		}
	}
	parse(".", false)
	for _, dir := range []string{"cmd", "scripts", "examples", "internal", "perfbench"} {
		parse(dir, true)
	}

	var dead []string
	for _, d := range decls {
		if _, ok := deadAPIAllowed[d.name]; !ok && refs[d.name] <= declared[d.name] {
			dead = append(dead, d.where)
		}
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Errorf("%d exported internal functions or methods are referenced only by tests; "+
			"delete them or move them into a _test.go file:\n\t%s",
			len(dead), strings.Join(dead, "\n\t"))
	}
}

// recvName returns the type name of a method receiver expression.
func recvName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return recvName(x.X)
	case *ast.IndexExpr:
		return recvName(x.X)
	case *ast.IndexListExpr:
		return recvName(x.X)
	case *ast.Ident:
		return x.Name
	}
	return "?"
}
