package mapc

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// deadAPIAllowed names exported functions and methods under internal/ that
// stay although no other non-test code names them. Exported types,
// constants and variables have no allowlist.
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

// writeOnlyFieldAllowed names, as package.Type.Field, exported untagged
// struct fields under internal/ that stay although no non-test code reads
// them.
var writeOnlyFieldAllowed = map[string]string{
	"core.LOOCVResult.PointIdx": "public through mapc.LOOCVResult",
	"ml.DecisionStep.WentLeft":  "public through mapc.LOOCVResult's decision paths",
	"sched.Outcome.CoRan":       "public through mapc.SchedOutcome",
	"simcache.Key.Slot":         "read as part of the memo's map key",
	"gpusim.Result.SMShare":     "the MPS split that the shares tests pin exactly",
}

// internalDecl is one exported declaration or struct field under internal/,
// or one unexported top-level declaration in any package.
type internalDecl struct {
	where string // file: qualified name, for the failure message
	name  string // the bare identifier
	key   string // package.Type.Field, the field allowlist key
	dir   string // the package's directory, for unexported declarations
}

// moduleIndex is what the guards need from the module's non-test Go files.
type moduleIndex struct {
	refs     map[string]int // identifier name -> occurrences
	reads    map[string]int // selector name -> uses other than as an = or := target
	declared map[string]int // exported top-level internal name -> declarations
	funcs    []internalDecl // exported top-level functions and methods
	others   []internalDecl // exported top-level types, constants and variables
	fields   []internalDecl // exported untagged struct fields

	local         map[string]map[string]int // package directory -> identifier -> occurrences
	localDeclared map[string]map[string]int // package directory -> unexported name -> declarations
	private       []internalDecl            // unexported top-level declarations
}

// indexModule parses the non-test files of the root package, cmd/,
// scripts/, examples/, internal/ and perfbench/.
func indexModule(t *testing.T) *moduleIndex {
	t.Helper()
	fset := token.NewFileSet()
	ix := &moduleIndex{refs: map[string]int{}, reads: map[string]int{}, declared: map[string]int{},
		local: map[string]map[string]int{}, localDeclared: map[string]map[string]int{}}

	parse := func(root string, recurse bool) {
		err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				if p != root && !recurse {
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
			file := filepath.ToSlash(p)
			dir := path.Dir(file)
			if ix.local[dir] == nil {
				ix.local[dir] = map[string]int{}
			}
			written := map[*ast.SelectorExpr]bool{}
			ast.Inspect(f, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.Ident:
					ix.refs[x.Name]++
					ix.local[dir][x.Name]++
				case *ast.AssignStmt:
					if x.Tok == token.ASSIGN || x.Tok == token.DEFINE {
						for _, lhs := range x.Lhs {
							if sel, ok := lhs.(*ast.SelectorExpr); ok {
								written[sel] = true
							}
						}
					}
				case *ast.SelectorExpr:
					if !written[x] {
						ix.reads[x.Sel.Name]++
					}
				}
				return true
			})
			if strings.HasPrefix(file, "internal/") {
				ix.declare(file, f)
			}
			ix.declarePrivate(file, f)
			return nil
		})
		if err != nil {
			t.Fatalf("walking %s: %v", root, err)
		}
	}
	parse(".", false)
	for _, dir := range []string{"cmd", "scripts", "examples", "internal", "perfbench"} {
		parse(dir, true)
	}
	return ix
}

// declare records file's exported top-level declarations and struct fields.
func (ix *moduleIndex) declare(file string, f *ast.File) {
	pkg := path.Base(path.Dir(file))
	add := func(list *[]internalDecl, qualified, name string) {
		*list = append(*list, internalDecl{where: file + ": " + qualified, name: name})
		ix.declared[name]++
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			qualified := d.Name.Name
			if d.Recv != nil && len(d.Recv.List) == 1 {
				qualified = recvName(d.Recv.List[0].Type) + "." + d.Name.Name
			}
			add(&ix.funcs, qualified, d.Name.Name)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						add(&ix.others, s.Name.Name, s.Name.Name)
					}
					ast.Inspect(s.Type, func(n ast.Node) bool {
						st, ok := n.(*ast.StructType)
						if !ok {
							return true
						}
						for _, fd := range st.Fields.List {
							if fd.Tag != nil { // read by encoding/json
								continue
							}
							for _, id := range fd.Names {
								if id.IsExported() {
									ix.fields = append(ix.fields, internalDecl{
										where: file + ": " + s.Name.Name + "." + id.Name,
										name:  id.Name,
										key:   pkg + "." + s.Name.Name + "." + id.Name,
									})
								}
							}
						}
						return true
					})
				case *ast.ValueSpec:
					for _, id := range s.Names {
						if id.IsExported() {
							add(&ix.others, id.Name, id.Name)
						}
					}
				}
			}
		}
	}
}

// declarePrivate records file's unexported top-level functions, methods,
// types, constants and variables; main, init and blank names are skipped.
func (ix *moduleIndex) declarePrivate(file string, f *ast.File) {
	dir := path.Dir(file)
	if ix.localDeclared[dir] == nil {
		ix.localDeclared[dir] = map[string]int{}
	}
	add := func(qualified string, id *ast.Ident) {
		if id.IsExported() || id.Name == "_" || id.Name == "init" || id.Name == "main" {
			return
		}
		ix.private = append(ix.private, internalDecl{where: file + ": " + qualified, name: id.Name, dir: dir})
		ix.localDeclared[dir][id.Name]++
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			qualified := d.Name.Name
			if d.Recv != nil && len(d.Recv.List) == 1 {
				qualified = recvName(d.Recv.List[0].Type) + "." + d.Name.Name
			}
			add(qualified, d.Name)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					add(s.Name.Name, s.Name)
				case *ast.ValueSpec:
					for _, id := range s.Names {
						add(id.Name, id)
					}
				}
			}
		}
	}
}

// TestNoTestOnlyInternalAPI fails on any exported top-level function,
// method, type, constant or variable under internal/ whose name no non-test
// Go file references other than at its own declaration. Code outside this
// module cannot import internal/, so such a symbol is kept alive only by
// tests.
func TestNoTestOnlyInternalAPI(t *testing.T) {
	ix := indexModule(t)
	var dead []string
	for _, d := range ix.funcs {
		if _, ok := deadAPIAllowed[d.name]; !ok && ix.refs[d.name] <= ix.declared[d.name] {
			dead = append(dead, d.where)
		}
	}
	for _, d := range ix.others {
		if ix.refs[d.name] <= ix.declared[d.name] {
			dead = append(dead, d.where)
		}
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Errorf("%d exported internal declarations are referenced only by tests; "+
			"delete them or move them into a _test.go file:\n\t%s",
			len(dead), strings.Join(dead, "\n\t"))
	}
}

// TestNoTestOnlyUnexported fails on any unexported top-level function,
// method, type, constant or variable in a non-test file whose name no
// non-test file of its package references other than at its declaration.
// Such a declaration is kept alive only by tests, so it belongs in a
// _test.go file. Names are matched within the package alone, so a use of
// any same-named identifier there counts.
func TestNoTestOnlyUnexported(t *testing.T) {
	ix := indexModule(t)
	var dead []string
	for _, d := range ix.private {
		if ix.local[d.dir][d.name] <= ix.localDeclared[d.dir][d.name] {
			dead = append(dead, d.where)
		}
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Errorf("%d unexported declarations are referenced only by tests; "+
			"delete them or move them into a _test.go file:\n\t%s",
			len(dead), strings.Join(dead, "\n\t"))
	}
}

// TestNoWriteOnlyInternalFields fails on any exported struct field under
// internal/ that no non-test Go file reads: every selector naming it is the
// target of an = or :=. Fields are matched by name alone, so a read of any
// same-named field or method counts. Tagged fields are skipped, because
// encoding/json reads them by reflection.
func TestNoWriteOnlyInternalFields(t *testing.T) {
	ix := indexModule(t)
	var dead []string
	for _, f := range ix.fields {
		if _, ok := writeOnlyFieldAllowed[f.key]; !ok && ix.reads[f.name] == 0 {
			dead = append(dead, f.where)
		}
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Errorf("%d exported internal struct fields are written but never read outside tests; "+
			"delete them:\n\t%s", len(dead), strings.Join(dead, "\n\t"))
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
