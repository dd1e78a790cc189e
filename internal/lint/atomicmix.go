package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// AtomicMix reports struct fields that are accessed both through sync/atomic
// functions (atomic.AddInt64(&s.f, 1)) and through plain reads or writes
// (s.f) in the same package. Mixing the two is a data race the race detector
// only catches when the schedule cooperates; the fix is to route every
// access through sync/atomic or, better, to use the typed atomic.Int64-style
// wrappers (which `go vet -copylocks` keeps from being copied).
//
// The check is per-package and keys on the field's types.Object, so embedded
// and pointer accesses resolve to the same field.
var AtomicMix = &Analyzer{
	Name: "atomicmix",
	Doc:  "no mixed atomic and plain access to the same field",
	Run:  runAtomicMix,
}

func runAtomicMix(pass *Pass) {
	info := pass.Pkg.Info
	if info == nil {
		return
	}
	atomicUse := map[types.Object]token.Pos{} // field → first atomic access
	exempt := map[*ast.SelectorExpr]bool{}    // selectors inside &arg of atomic calls

	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if !isAtomicFunc(info, call.Fun) {
				return true
			}
			for _, arg := range call.Args {
				un, ok := unparen(arg).(*ast.UnaryExpr)
				if !ok || un.Op != token.AND {
					continue
				}
				sel, ok := unparen(un.X).(*ast.SelectorExpr)
				if !ok {
					continue
				}
				if obj := fieldObject(info, sel); obj != nil {
					exempt[sel] = true
					if _, seen := atomicUse[obj]; !seen {
						atomicUse[obj] = sel.Pos()
					}
				}
			}
			return true
		})
	}
	if len(atomicUse) == 0 {
		return
	}
	for _, f := range pass.Pkg.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || exempt[sel] {
				return true
			}
			obj := fieldObject(info, sel)
			if obj == nil {
				return true
			}
			if first, ok := atomicUse[obj]; ok {
				pass.Reportf(sel.Pos(), "field %s is accessed atomically elsewhere (e.g. %s) but plainly here; mixed access races",
					obj.Name(), pass.Module.Fset.Position(first))
			}
			return true
		})
	}
}

// fieldObject resolves sel to the struct field it reads, or nil when it is a
// method, package member, or unresolved.
func fieldObject(info *types.Info, sel *ast.SelectorExpr) types.Object {
	s, ok := info.Selections[sel]
	if !ok || s.Kind() != types.FieldVal {
		return nil
	}
	return s.Obj()
}

// isAtomicFunc matches selector calls into package sync/atomic.
func isAtomicFunc(info *types.Info, fun ast.Expr) bool {
	sel, ok := unparen(fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return false
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok || pn.Imported().Path() != "sync/atomic" {
		return false
	}
	for _, prefix := range []string{"Add", "Load", "Store", "Swap", "CompareAndSwap", "And", "Or"} {
		if strings.HasPrefix(sel.Sel.Name, prefix) {
			return true
		}
	}
	return false
}
