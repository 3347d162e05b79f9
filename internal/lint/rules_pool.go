package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"slices"
	"strings"
)

// runPoolLiteral flags composite literals of pooled types. The free
// lists only work if every construction and every scrub goes through
// the factory (DESIGN.md "Object lifecycle & pooling"): a stray
// &maxmin.Variable{} bypasses the pool and, worse, a stray scrub literal
// can zero an object the pool still references. Inside a factory file
// only the scrub itself, *x = T{...}, is a literal: a miss carves from
// the owner's pool.Slab, so even there &T{} or T{} is a finding. A
// pool.List of a type missing from PooledTypes is a finding too, since
// none of that type's literals would be checked.
func runPoolLiteral(p *Package, cfg *Config) []Finding {
	if len(cfg.PooledTypes) == 0 {
		return nil
	}
	var out []Finding
	for _, f := range p.Files {
		scrubs := map[*ast.CompositeLit]bool{}
		ast.Inspect(f, func(n ast.Node) bool {
			if fld, ok := n.(*ast.Field); ok {
				if qual := listElem(p.Info.TypeOf(fld.Type)); qual != "" && cfg.PooledTypes[qual] == nil {
					out = append(out, Finding{
						Pos:  p.Fset.Position(fld.Pos()),
						Rule: "pool-literal",
						Msg:  fmt.Sprintf("%s is kept on a pool.List but is not a pooled type: register it with its factory file", qual),
					})
				}
			}
			if as, ok := n.(*ast.AssignStmt); ok && as.Tok == token.ASSIGN && len(as.Lhs) == len(as.Rhs) {
				for i, lhs := range as.Lhs {
					if _, star := lhs.(*ast.StarExpr); star {
						if lit, ok := as.Rhs[i].(*ast.CompositeLit); ok {
							scrubs[lit] = true
						}
					}
				}
			}
			lit, ok := n.(*ast.CompositeLit)
			if !ok {
				return true
			}
			t := p.Info.TypeOf(lit)
			if t == nil {
				return true
			}
			named, ok := t.(*types.Named)
			if !ok || named.Obj().Pkg() == nil {
				return true
			}
			qual := named.Obj().Pkg().Path() + "." + named.Obj().Name()
			factories, pooled := cfg.PooledTypes[qual]
			if !pooled {
				return true
			}
			pos := p.Fset.Position(lit.Pos())
			msg := fmt.Sprintf("pooled type %s constructed by composite literal outside its factory (%s): use the factory so the free list stays the only owner",
				qual, strings.Join(factories, ", "))
			if slices.Contains(factories, filepath.Base(pos.Filename)) {
				if scrubs[lit] {
					return true
				}
				msg = fmt.Sprintf("pooled type %s constructed by composite literal in its factory: carve a miss from the owner's pool.Slab; only the scrub *x = %s{...} is a literal here",
					qual, named.Obj().Name())
			}
			out = append(out, Finding{Pos: pos, Rule: "pool-literal", Msg: msg})
			return true
		})
	}
	return out
}

// listElem names T when t is a pool.List[*T] (or an array of them) of a
// named T, and is "" otherwise.
func listElem(t types.Type) string {
	for {
		a, ok := t.(*types.Array)
		if !ok {
			break
		}
		t = a.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.TypeArgs().Len() != 1 {
		return ""
	}
	if o := named.Origin().Obj(); o.Name() != "List" || o.Pkg() == nil || !strings.HasSuffix(o.Pkg().Path(), "/internal/pool") {
		return ""
	}
	ptr, ok := named.TypeArgs().At(0).(*types.Pointer)
	if !ok {
		return ""
	}
	elem, ok := ptr.Elem().(*types.Named)
	if !ok || elem.Obj().Pkg() == nil {
		return ""
	}
	return elem.Obj().Pkg().Path() + "." + elem.Obj().Name()
}

// runUseAfterRelease is an intra-function, block-sequential dataflow
// check: once a statement releases a variable (x.Release(),
// s.RemoveVariable(x), …), any read of that variable in a later
// statement of the same block is a finding until the variable is
// reassigned. Released objects belong to the pool; the next factory
// call may hand them to an unrelated owner.
func runUseAfterRelease(p *Package, cfg *Config) []Finding {
	if len(cfg.ReleaseMethods) == 0 && len(cfg.ReleaseFuncs) == 0 {
		return nil
	}
	var out []Finding
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch b := n.(type) {
				case *ast.BlockStmt:
					out = append(out, scanStmtSeq(p, cfg, b.List)...)
				case *ast.CaseClause:
					out = append(out, scanStmtSeq(p, cfg, b.Body)...)
				case *ast.CommClause:
					out = append(out, scanStmtSeq(p, cfg, b.Body)...)
				}
				return true
			})
		}
	}
	return out
}

// scanStmtSeq walks one statement list in order, tracking which
// variables were released by a top-level statement and reporting later
// reads. Nested blocks are handled by their own scanStmtSeq pass (a
// release inside an if-branch only poisons that branch), and function
// literals are skipped entirely: their body does not execute in
// statement order.
func scanStmtSeq(p *Package, cfg *Config, stmts []ast.Stmt) []Finding {
	var out []Finding
	released := make(map[*types.Var]string) // var -> releasing call, for the message
	for _, st := range stmts {
		if len(released) > 0 {
			// Reassignment anywhere in this statement un-poisons the
			// variable before we look for reads (lenient: `x = fresh()`
			// makes x safe again).
			forEachAssignedVar(p, st, func(v *types.Var) {
				delete(released, v)
			})
			reported := make(map[*types.Var]bool)
			walkSkippingFuncLits(st, func(n ast.Node) {
				id, ok := n.(*ast.Ident)
				if !ok {
					return
				}
				v, ok := p.Info.Uses[id].(*types.Var)
				if !ok {
					return
				}
				call, rel := released[v]
				if !rel || reported[v] {
					return
				}
				reported[v] = true
				out = append(out, Finding{
					Pos:  p.Fset.Position(id.Pos()),
					Rule: "pool-use-after-release",
					Msg:  fmt.Sprintf("use of %s after %s released it: the object belongs to the pool now and may be handed to another owner", v.Name(), call),
				})
			})
		}
		if v, call, ok := releasedVar(p, cfg, st); ok {
			released[v] = call
		}
	}
	return out
}

// releasedVar reports whether st is a top-level release call and which
// variable it releases. Only plain identifiers are tracked; releasing
// a field or element (a.v) is out of scope for the intra-function
// check.
func releasedVar(p *Package, cfg *Config, st ast.Stmt) (*types.Var, string, bool) {
	es, ok := st.(*ast.ExprStmt)
	if !ok {
		return nil, "", false
	}
	call, ok := es.X.(*ast.CallExpr)
	if !ok {
		return nil, "", false
	}
	switch fun := call.Fun.(type) {
	case *ast.SelectorExpr:
		name := fun.Sel.Name
		if cfg.ReleaseMethods[name] {
			// x.Release(): the receiver is the victim.
			if id, ok := fun.X.(*ast.Ident); ok {
				if v, ok := p.Info.Uses[id].(*types.Var); ok {
					return v, id.Name + "." + name + "()", true
				}
			}
		}
		if cfg.ReleaseFuncs[name] && len(call.Args) > 0 {
			// s.RemoveVariable(x): the first argument is the victim.
			if id, ok := call.Args[0].(*ast.Ident); ok {
				if v, ok := p.Info.Uses[id].(*types.Var); ok {
					return v, name + "(" + id.Name + ")", true
				}
			}
		}
	case *ast.Ident:
		if cfg.ReleaseFuncs[fun.Name] && len(call.Args) > 0 {
			if id, ok := call.Args[0].(*ast.Ident); ok {
				if v, ok := p.Info.Uses[id].(*types.Var); ok {
					return v, fun.Name + "(" + id.Name + ")", true
				}
			}
		}
	}
	return nil, "", false
}

// forEachAssignedVar calls fn for every variable assigned (=, :=) as a
// plain identifier anywhere inside st.
func forEachAssignedVar(p *Package, st ast.Stmt, fn func(*types.Var)) {
	walkSkippingFuncLits(st, func(n ast.Node) {
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return
		}
		for _, lhs := range as.Lhs {
			id, ok := lhs.(*ast.Ident)
			if !ok {
				continue
			}
			if v, ok := p.Info.Uses[id].(*types.Var); ok {
				fn(v)
			} else if v, ok := p.Info.Defs[id].(*types.Var); ok {
				fn(v)
			}
		}
	})
}

// walkSkippingFuncLits visits every node under root except function
// literal bodies.
func walkSkippingFuncLits(root ast.Node, visit func(ast.Node)) {
	ast.Inspect(root, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if n != nil {
			visit(n)
		}
		return true
	})
}
