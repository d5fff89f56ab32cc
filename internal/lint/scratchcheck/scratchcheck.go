// Package scratchcheck enforces the discipline of the demand walker
// inside internal/core itself. (Escapes of the core.Scratch arena —
// retention in struct fields or globals, capture by
// concurrently-launched functions, cross-package laundering — are
// borrowcheck's job, interprocedurally via Borrows facts; this
// analyzer keeps the rules that are about core's own walker plumbing,
// not about escape.) Three rules, each applied at every
// w := o.acquireWalker(...) site:
//
//  1. A function that has borrowed the walker via o.acquireWalker must
//     not pass the same Options o on to another call while the borrow
//     is live: the nested walk silently falls back to the pool
//     (scratch_test.go pins that fallback is safe, but relying on it
//     defeats the arena and hides a layering mistake).
//  2. Every w := o.acquireWalker(...) must be followed immediately by
//     defer o.releaseWalker(w), so a panicking walk cannot leak the
//     borrow and poison the arena for its owner.
//  3. A function that starts a walk must consult the event budget
//     (Options.MaxEvents or the maxEvents helper; see the "Event
//     pruning" section of docs/PERF.md). An uncapped pseudo-polynomial
//     walk can run effectively forever on adversarial parameters; the
//     budget turns that into a reported, inexact (or error) result.
//
// Test files are exempt: scratch_test.go deliberately constructs the
// flagged patterns to pin their runtime behavior.
package scratchcheck

import (
	"go/ast"
	"go/types"

	"mcspeedup/internal/lint"
)

const corePkgPath = "mcspeedup/internal/core"

// Analyzer is the scratchcheck analyzer.
var Analyzer = &lint.Analyzer{
	Name: "scratchcheck",
	Doc:  "forbid double-borrowing, leaking or unbudgeted walks of the core.Scratch walker inside internal/core",
	Run:  run,
}

func run(pass *lint.Pass) error {
	if pass.Pkg.Path() != corePkgPath {
		return nil
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkFunc(pass, fd)
			}
		}
	}
	return nil
}

// checkFunc enforces the three rules on one function: an acquireWalker
// assignment must be chased by defer releaseWalker on the next
// statement, the borrowed Options must not be handed to another call
// while the borrow is live, and the function must read the event
// budget (reported once, at its first walk).
func checkFunc(pass *lint.Pass, fd *ast.FuncDecl) {
	budgeted := readsEventBudget(pass, fd.Body)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		block, ok := n.(*ast.BlockStmt)
		if !ok {
			return true
		}
		for i, stmt := range block.List {
			as, ok := stmt.(*ast.AssignStmt)
			if !ok || len(as.Rhs) != 1 {
				continue
			}
			call, ok := as.Rhs[0].(*ast.CallExpr)
			if !ok || !isWalkerMethod(pass, call, "acquireWalker") {
				continue
			}
			if !followedByRelease(pass, block.List, i, as) {
				pass.Reportf(as.Pos(), "o.acquireWalker must be immediately followed by defer o.releaseWalker(w): without the defer a panicking walk leaks the borrowed Scratch")
			}
			reportBorrowedOptionsEscapes(pass, block.List[i+1:], call)
			if !budgeted {
				pass.Reportf(call.Pos(), "%s starts a demand walk (acquireWalker) without consulting Options.MaxEvents (or maxEvents): unbudgeted pseudo-polynomial walks can run unbounded on adversarial parameters", fd.Name.Name)
				budgeted = true // one report per function
			}
		}
		return true
	})
}

// readsEventBudget reports whether body reads core's Options.MaxEvents
// field or calls its maxEvents helper.
func readsEventBudget(pass *lint.Pass, body *ast.BlockStmt) bool {
	found := false
	ast.Inspect(body, func(n ast.Node) bool {
		if sel, ok := n.(*ast.SelectorExpr); ok && !found {
			found = isEventBudget(pass.TypesInfo.Uses[sel.Sel])
		}
		return !found
	})
	return found
}

func isEventBudget(obj types.Object) bool {
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != corePkgPath {
		return false
	}
	switch obj := obj.(type) {
	case *types.Func:
		return obj.Name() == "maxEvents"
	case *types.Var:
		return obj.IsField() && obj.Name() == "MaxEvents"
	}
	return false
}

// isWalkerMethod reports whether call invokes the named core.Options
// walker method.
func isWalkerMethod(pass *lint.Pass, call *ast.CallExpr, name string) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	return ok && fn.Name() == name && fn.Pkg() != nil && fn.Pkg().Path() == corePkgPath
}

// followedByRelease reports whether the statement after stmts[i] defers
// releaseWalker on a variable assigned by as.
func followedByRelease(pass *lint.Pass, stmts []ast.Stmt, i int, as *ast.AssignStmt) bool {
	if i+1 >= len(stmts) {
		return false
	}
	def, ok := stmts[i+1].(*ast.DeferStmt)
	if !ok || !isWalkerMethod(pass, def.Call, "releaseWalker") {
		return false
	}
	assigned := make(map[types.Object]bool)
	for _, lhs := range as.Lhs {
		if id, ok := lhs.(*ast.Ident); ok {
			if obj := pass.TypesInfo.Defs[id]; obj != nil {
				assigned[obj] = true
			} else if obj := pass.TypesInfo.Uses[id]; obj != nil {
				assigned[obj] = true
			}
		}
	}
	for _, arg := range def.Call.Args {
		if id, ok := arg.(*ast.Ident); ok && assigned[pass.TypesInfo.Uses[id]] {
			return true
		}
	}
	return false
}

// reportBorrowedOptionsEscapes flags calls in rest that pass, as an
// argument, the Options value whose walker acquire is borrowed.
func reportBorrowedOptionsEscapes(pass *lint.Pass, rest []ast.Stmt, acquire *ast.CallExpr) {
	sel := acquire.Fun.(*ast.SelectorExpr)
	recv, ok := sel.X.(*ast.Ident)
	if !ok {
		return
	}
	optsObj := pass.TypesInfo.Uses[recv]
	if optsObj == nil {
		return
	}
	for _, stmt := range rest {
		ast.Inspect(stmt, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			for _, arg := range call.Args {
				id, ok := arg.(*ast.Ident)
				if ok && pass.TypesInfo.Uses[id] == optsObj {
					pass.Reportf(id.Pos(), "Options %s passed to a nested call while its Scratch walker is borrowed: the nested walk silently falls back to the pool, defeating the arena; use a fresh Options/Scratch", id.Name)
				}
			}
			return true
		})
	}
}
