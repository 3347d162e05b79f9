package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// runAPIRent makes the fenced packages' public surface pay rent: every
// exported func, method and package-level var there needs a use in
// some non-test file of the linted module (the loader reads no test
// files). A method that satisfies an interface — declared in the
// module, in the standard library or the universe's error — is used
// through it and is exempt. The paper's API calls and accessors read
// only by another package's tests stay through an allow naming that
// call or test.
func runAPIRent(pkgs []*Package, cfg *Config) []Finding {
	used := make(map[types.Object]bool)
	for _, p := range pkgs {
		for _, obj := range p.Info.Uses {
			switch o := obj.(type) {
			case *types.Func:
				obj = o.Origin()
			case *types.Var:
				obj = o.Origin()
			}
			used[obj] = true
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
