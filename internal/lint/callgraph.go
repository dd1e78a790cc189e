package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// The interprocedural layer: a module-wide call graph over go/types with one
// summary node per declared function. Per-package analyzers see one function
// at a time; the graph lets the goroleak, lockorder and hotalloc passes reason
// about what a callee does (acquire locks, block on I/O, recover panics).
//
// The graph is static and intentionally modest: only calls that resolve to a
// declared module function become edges (interface dispatch and function
// values do not), and calls made inside function literals are attributed to
// the enclosing declaration. Both are over- and under-approximations the
// analyzers tolerate — grove's invariants live on concrete types, and a
// literal runs with its encloser's obligations.

// FuncInfo is one declared function or method in the module, with the
// summary facts the interprocedural analyzers consume.
type FuncInfo struct {
	Obj  *types.Func
	Decl *ast.FuncDecl
	Pkg  *Package

	// Calls lists the static calls to other module functions, in source
	// order, including calls made inside nested function literals.
	Calls []CallSite

	// Hotpath records a //grove:hotpath annotation in the doc comment.
	Hotpath bool

	// RecoversDeferred is true when the body (not a nested literal) defers a
	// recover — `defer func() { ... recover() ... }()` — so a panic anywhere
	// in the function is caught.
	RecoversDeferred bool

	// DoneReceivers lists the rendered receivers of sync.WaitGroup Done()
	// calls in the body, e.g. "wg" — goroleak's join evidence for spawns of
	// named functions.
	DoneReceivers []string
}

// CallSite is one resolved call edge.
type CallSite struct {
	Callee *FuncInfo
	Call   *ast.CallExpr
}

// Name returns the diagnostic-friendly qualified name, e.g.
// "(*Engine).ExecuteGraphQueryContext" or "scatterError".
func (f *FuncInfo) Name() string {
	if recv := f.Decl.Recv; recv != nil && len(recv.List) > 0 {
		return "(" + types.ExprString(recv.List[0].Type) + ")." + f.Decl.Name.Name
	}
	return f.Decl.Name.Name
}

// CallGraph indexes every declared function in the module.
type CallGraph struct {
	Funcs []*FuncInfo // declaration order (per sorted package)
	byObj map[*types.Func]*FuncInfo
}

// hotpathMarker annotates a function whose body the hotalloc analyzer must
// prove free of heap allocations.
const hotpathMarker = "grove:hotpath"

// CallGraph builds (once) and returns the module's call graph.
func (m *Module) CallGraph() *CallGraph {
	if m.cg != nil {
		return m.cg
	}
	cg := &CallGraph{byObj: map[*types.Func]*FuncInfo{}}
	// First pass: one node per declaration.
	for _, pkg := range m.Pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fi := &FuncInfo{Decl: fd, Pkg: pkg}
				if pkg.Info != nil {
					if obj, ok := pkg.Info.Defs[fd.Name].(*types.Func); ok {
						fi.Obj = obj
						cg.byObj[obj] = fi
					}
				}
				fi.Hotpath = docHasMarker(fd.Doc, hotpathMarker)
				cg.Funcs = append(cg.Funcs, fi)
			}
		}
	}
	// Second pass: edges and body facts.
	for _, fi := range cg.Funcs {
		cg.summarize(fi)
	}
	m.cg = cg
	return cg
}

// Lookup resolves a used function object to its module declaration, or nil
// for stdlib / interface-method / unresolved callees.
func (cg *CallGraph) Lookup(obj *types.Func) *FuncInfo {
	if obj == nil {
		return nil
	}
	return cg.byObj[obj]
}

// summarize fills a node's call edges and body facts.
func (cg *CallGraph) summarize(fi *FuncInfo) {
	info := fi.Pkg.Info
	var walk func(n ast.Node, litDepth int)
	walk = func(n ast.Node, litDepth int) {
		ast.Inspect(n, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncLit:
				walk(n.Body, litDepth+1)
				return false
			case *ast.CallExpr:
				if callee := cg.Lookup(usedFunc(info, n)); callee != nil {
					fi.Calls = append(fi.Calls, CallSite{Callee: callee, Call: n})
				}
				if recv, name, _, ok := methodCall(n); ok && name == "Done" &&
					receiverIsType(info, recv, "sync", "WaitGroup") {
					fi.DoneReceivers = append(fi.DoneReceivers, types.ExprString(recv))
				}
			case *ast.DeferStmt:
				// Only a top-level deferred recover protects the whole
				// function; one deferred inside a nested literal protects
				// that literal.
				if fl, ok := n.Call.Fun.(*ast.FuncLit); ok && callsRecover(fl.Body) && litDepth == 0 {
					fi.RecoversDeferred = true
				}
			}
			return true
		})
	}
	walk(fi.Decl.Body, 0)
}

// usedFunc resolves the called function object of a call expression.
func usedFunc(info *types.Info, call *ast.CallExpr) *types.Func {
	if info == nil {
		return nil
	}
	switch fun := unparen(call.Fun).(type) {
	case *ast.Ident:
		if f, ok := info.Uses[fun].(*types.Func); ok {
			return f
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[fun.Sel].(*types.Func); ok {
			return f
		}
	}
	return nil
}

// receiverIsType reports whether recv's static type is (a pointer to) the
// named type pkgPath.typeName. Unlike receiverNamed it requires resolved
// type info and an exact package match.
func receiverIsType(info *types.Info, recv ast.Expr, pkgPath, typeName string) bool {
	if info == nil {
		return false
	}
	tv, ok := info.Types[unparen(recv)]
	if !ok || tv.Type == nil {
		return false
	}
	t := tv.Type
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == typeName && obj.Pkg() != nil && obj.Pkg().Path() == pkgPath
}

// callsRecover reports whether the block contains a direct recover() call
// (not inside a nested function literal).
func callsRecover(body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := n.(*ast.CallExpr); ok {
			if id, ok := unparen(call.Fun).(*ast.Ident); ok && id.Name == "recover" {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// docHasMarker reports whether a doc comment group contains marker as a
// directive-style line.
func docHasMarker(doc *ast.CommentGroup, marker string) bool {
	if doc == nil {
		return false
	}
	for _, c := range doc.List {
		if strings.Contains(c.Text, marker) {
			return true
		}
	}
	return false
}
