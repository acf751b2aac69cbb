package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// UnusedAnalyzer reports unexported package-level functions, methods, types,
// variables and constants that no non-test code references. Code kept alive
// only by its own tests is dead weight in the program: it has to be read,
// linted and maintained, and nothing the program does depends on it.
//
// A reference from inside the declaration itself (a recursive call, a
// method's use of its own receiver type) does not count. Methods whose name
// appears in any interface the package mentions are treated as used, since
// a call through the interface never names the concrete method.
// Intentional cases take `//smartconf:allow unused -- <reason>`.
var UnusedAnalyzer = &Analyzer{
	Name: "unused",
	Doc: "reports unexported package-level funcs, methods, types, vars and consts " +
		"that no non-test code references",
	Run: runUnused,
}

func runUnused(pass *Pass) error {
	isTest := func(f *ast.File) bool {
		return strings.HasSuffix(pass.Fset.Position(f.Pos()).Filename, "_test.go")
	}

	// Candidates: unexported package-level objects declared in non-test
	// files, each with the source span of its own declaration.
	type span struct{ lo, hi int }
	type candidate struct {
		ident *ast.Ident
		decl  span
	}
	candidates := map[types.Object]candidate{}
	add := func(id *ast.Ident, decl ast.Node) {
		if id == nil || id.Name == "_" || id.IsExported() || id.Name == "init" || id.Name == "main" {
			return
		}
		if obj := pass.Info.Defs[id]; obj != nil {
			candidates[obj] = candidate{ident: id, decl: span{int(decl.Pos()), int(decl.End())}}
		}
	}
	for _, f := range pass.Files {
		if isTest(f) {
			continue
		}
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				add(d.Name, d)
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						add(spec.Name, spec)
					case *ast.ValueSpec:
						for _, name := range spec.Names {
							add(name, spec)
						}
					}
				}
			}
		}
	}

	// Method names any interface in the package can dispatch to.
	viaInterface := map[string]bool{}
	noteInterface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				viaInterface[it.Method(i).Name()] = true
			}
		}
	}
	for _, tv := range pass.Info.Types {
		if tv.Type != nil {
			noteInterface(tv.Type)
		}
	}
	for _, obj := range pass.Info.Defs {
		if tn, ok := obj.(*types.TypeName); ok {
			noteInterface(tn.Type())
		}
	}

	used := map[types.Object]bool{}
	var visit func(n ast.Node) bool
	visit = func(n ast.Node) bool {
		if fd, ok := n.(*ast.FuncDecl); ok && fd.Recv != nil {
			// A method's receiver names its type without using it.
			ast.Inspect(fd.Type, visit)
			if fd.Body != nil {
				ast.Inspect(fd.Body, visit)
			}
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.Info.Uses[id]
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		if c, ok := candidates[obj]; ok && (int(id.Pos()) < c.decl.lo || int(id.Pos()) >= c.decl.hi) {
			used[obj] = true
		}
		return true
	}
	for _, f := range pass.Files {
		if !isTest(f) {
			ast.Inspect(f, visit)
		}
	}

	for obj, c := range candidates {
		if used[obj] {
			continue
		}
		kind := "func"
		switch o := obj.(type) {
		case *types.Func:
			if sig, ok := o.Type().(*types.Signature); ok && sig.Recv() != nil {
				if viaInterface[o.Name()] {
					continue
				}
				kind = "method"
			}
		case *types.TypeName:
			kind = "type"
		case *types.Var:
			kind = "var"
		case *types.Const:
			kind = "const"
		}
		pass.Reportf(c.ident.Pos(), "unused %s %s: no reference from non-test code", kind, obj.Name())
	}
	return nil
}
