package lint

import (
	"fmt"
	"go/ast"
	"go/types"
	"strings"
)

// runSimcallInHandler enforces the simcall blocking contract on
// completion handlers: ActionDone (and any other Completion-interface
// method) runs in kernel context, on the kernel turn's stack, so a
// path from a handler to a blocking simcall entry point
// (Process.BlockOn, Sleep, surf's Action.Wait, …) would park the kernel
// itself.
// The check builds an in-package static call graph (an approximation:
// calls through interfaces or function values are not followed) and
// reports every handler method from which a blocking entry point is
// reachable.
func runSimcallInHandler(p *Package, cfg *Config) []Finding {
	if len(cfg.CompletionIfaces) == 0 || len(cfg.BlockingFuncs) == 0 {
		return nil
	}
	ifaces := resolveIfaces(p, cfg.CompletionIfaces)
	if len(ifaces) == 0 {
		return nil
	}

	// Collect this package's function declarations and their static
	// call edges, in source order for deterministic reports.
	type edge struct {
		callee *types.Func
		pos    string // "file:line" of the call site, for the message
	}
	decls := make(map[*types.Func]*ast.FuncDecl)
	edges := make(map[*types.Func][]edge)
	var order []*types.Func
	for _, f := range p.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, ok := p.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			decls[fn] = fd
			order = append(order, fn)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				var callee *types.Func
				switch fun := call.Fun.(type) {
				case *ast.Ident:
					callee, _ = p.Info.Uses[fun].(*types.Func)
				case *ast.SelectorExpr:
					callee, _ = p.Info.Uses[fun.Sel].(*types.Func)
				}
				if callee != nil {
					cp := p.Fset.Position(call.Pos())
					edges[fn] = append(edges[fn], edge{callee, fmt.Sprintf("%s:%d", cp.Filename, cp.Line)})
				}
				return true
			})
		}
	}

	var out []Finding
	for _, root := range order {
		fd := decls[root]
		if fd.Recv == nil || !satisfies(root, ifaces) {
			continue
		}
		// BFS from the handler through same-package callees; any edge
		// into a blocking entry point is a violation, reported with
		// one witness path.
		type item struct {
			fn   *types.Func
			path []string
		}
		visited := map[*types.Func]bool{root: true}
		queue := []item{{root, []string{root.FullName()}}}
		for len(queue) > 0 {
			it := queue[0]
			queue = queue[1:]
			for _, e := range edges[it.fn] {
				if cfg.BlockingFuncs[e.callee.FullName()] {
					out = append(out, Finding{
						Pos:  p.Fset.Position(fd.Pos()),
						Rule: "simcall-in-handler",
						Msg: fmt.Sprintf("completion handler %s can reach blocking %s (%s, called at %s): handlers run in kernel context and must not block",
							root.FullName(), e.callee.FullName(), strings.Join(it.path, " -> "), e.pos),
					})
					queue = nil // one witness per handler is enough
					break
				}
				if _, local := decls[e.callee]; local && !visited[e.callee] {
					visited[e.callee] = true
					queue = append(queue, item{e.callee, append(append([]string(nil), it.path...), e.callee.FullName())})
				}
			}
		}
	}
	return out
}

// resolveIfaces looks up the configured qualified interface names in
// the package itself or its direct imports; names that resolve to
// nothing are skipped (the package simply does not interact with that
// contract).
func resolveIfaces(p *Package, quals []string) []*types.Interface {
	var out []*types.Interface
	for _, q := range quals {
		dot := strings.LastIndex(q, ".")
		if dot < 0 {
			continue
		}
		pkgPath, name := q[:dot], q[dot+1:]
		var scope *types.Scope
		if pkgPath == p.Path {
			scope = p.Types.Scope()
		} else {
			for _, imp := range p.Types.Imports() {
				if imp.Path() == pkgPath {
					scope = imp.Scope()
					break
				}
			}
		}
		if scope == nil {
			continue
		}
		obj := scope.Lookup(name)
		if obj == nil {
			continue
		}
		if iface, ok := obj.Type().Underlying().(*types.Interface); ok {
			out = append(out, iface)
		}
	}
	return out
}

// satisfies reports whether fn is a method whose name belongs to one
// of ifaces and whose receiver type implements that interface (by
// value or by pointer).
func satisfies(fn *types.Func, ifaces []*types.Interface) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	recv := sig.Recv().Type()
	for _, iface := range ifaces {
		named := false
		for i := 0; i < iface.NumMethods(); i++ {
			if iface.Method(i).Name() == fn.Name() {
				named = true
				break
			}
		}
		if !named {
			continue
		}
		if types.Implements(recv, iface) {
			return true
		}
		if _, isPtr := recv.(*types.Pointer); !isPtr && types.Implements(types.NewPointer(recv), iface) {
			return true
		}
	}
	return false
}
