package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// runAPIRent makes the fenced packages' state and public surface pay
// rent: every exported func, method and package-level var there needs
// a use in some non-test file of the linted module (the loader reads
// no test files), and every struct field stored there by name needs a
// read. A method that satisfies an interface — declared in the
// module, in the standard library or the universe's error — is used
// through it and is exempt. The paper's API calls and what only
// another package's tests read stay through an allow naming that call
// or test.
func runAPIRent(pkgs []*Package, cfg *Config) []Finding {
	stores := storeSites(pkgs)
	used := make(map[types.Object]bool)
	stored := make(map[types.Object]bool)
	for _, p := range pkgs {
		for id, obj := range p.Info.Uses {
			switch o := obj.(type) {
			case *types.Func:
				obj = o.Origin()
			case *types.Var:
				obj = o.Origin()
			}
			if stores[id] {
				stored[obj] = true
			} else {
				used[obj] = true
			}
		}
	}
	ifaces := allInterfaces(pkgs)

	var out []Finding
	report := func(p *Package, id *ast.Ident, kind string) {
		out = append(out, Finding{
			Pos:  p.Fset.Position(id.Pos()),
			Rule: "api-rent",
			Msg: fmt.Sprintf("exported %s %s has no non-test use in the module: delete or unexport it, or allow it naming the paper call or the test that needs it",
				kind, id.Name),
		})
	}
	for _, p := range pkgs {
		if !inScope(cfg.RentPkgs, p.Path) {
			continue
		}
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				if st, ok := n.(*ast.StructType); ok {
					for _, fd := range st.Fields.List {
						for _, id := range fd.Names {
							if obj := p.Info.Defs[id]; stored[obj] && !used[obj] {
								out = append(out, Finding{
									Pos:  p.Fset.Position(id.Pos()),
									Rule: "api-rent",
									Msg:  "field " + id.Name + " is stored but never read by non-test code in the module: delete it, or allow it naming the test that reads it",
								})
							}
						}
					}
				}
				return true
			})
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					fn, ok := p.Info.Defs[d.Name].(*types.Func)
					if !ok || !d.Name.IsExported() || used[fn] || satisfies(fn, ifaces) {
						continue
					}
					kind := "func"
					if d.Recv != nil {
						kind = "method"
					}
					report(p, d.Name, kind)
				case *ast.GenDecl:
					if d.Tok != token.VAR {
						continue
					}
					for _, spec := range d.Specs {
						for _, id := range spec.(*ast.ValueSpec).Names {
							if id.IsExported() && !used[p.Info.Defs[id]] {
								report(p, id, "var")
							}
						}
					}
				}
			}
		}
	}
	return out
}

// storeSites returns the identifiers at which a struct field is stored
// by name: the selector on the left of a plain `=` and the key of a
// keyed composite literal. Every other use of a field — `op=`, `++`,
// `&x.f`, `x.f[i] = v` — reads it.
func storeSites(pkgs []*Package) map[*ast.Ident]bool {
	sites := make(map[*ast.Ident]bool)
	for _, p := range pkgs {
		isField := func(id *ast.Ident) bool {
			v, ok := p.Info.Uses[id].(*types.Var)
			return ok && v.IsField()
		}
		for _, f := range p.Files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					if n.Tok != token.ASSIGN {
						break
					}
					for _, lhs := range n.Lhs {
						if sel, ok := lhs.(*ast.SelectorExpr); ok && isField(sel.Sel) {
							sites[sel.Sel] = true
						}
					}
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok && isField(id) {
						sites[id] = true
					}
				}
				return true
			})
		}
	}
	return sites
}

// allInterfaces returns the universe's error and every non-generic
// package-level interface type of pkgs and of everything they import,
// transitively.
func allInterfaces(pkgs []*Package) []*types.Interface {
	ifaces := []*types.Interface{types.Universe.Lookup("error").Type().Underlying().(*types.Interface)}
	seen := make(map[*types.Package]bool)
	var visit func(tp *types.Package)
	visit = func(tp *types.Package) {
		if seen[tp] {
			return
		}
		seen[tp] = true
		scope := tp.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
				continue
			}
			if iface, ok := tn.Type().Underlying().(*types.Interface); ok && iface.IsMethodSet() {
				ifaces = append(ifaces, iface)
			}
		}
		for _, imp := range tp.Imports() {
			visit(imp)
		}
	}
	for _, p := range pkgs {
		visit(p.Types)
	}
	return ifaces
}
