// Package ratcheck forbids raw int64 arithmetic and ordering on values
// extracted from rat.Rat numerators and denominators outside
// mcspeedup/internal/rat.
//
// The analysis engine's exactness (Theorem 2, Corollary 5) rests on
// rat's invariant that every operation either yields the exact result
// or reports overflow; 128-bit intermediates make comparisons safe at
// any magnitude. A caller that pulls the int64 fields out via Num()/
// Den() and combines them with + - * / or < loses both guarantees
// silently: the expression wraps or misorders without any error. Such
// code must use the rat.Rat methods instead — Add/AddChecked/Sub/Mul/
// Div for arithmetic, Cmp/Less/LessEq/Eq for ordering.
//
// Inside internal/rat the fields are accessed directly and the package
// owns the overflow discipline, so the check does not apply there.
package ratcheck

import (
	"go/ast"
	"go/token"
	"go/types"

	"mcspeedup/internal/lint"
)

const ratPkgPath = "mcspeedup/internal/rat"

// Analyzer is the ratcheck analyzer.
var Analyzer = &lint.Analyzer{
	Name: "ratcheck",
	Doc:  "forbid raw int64 arithmetic/ordering on rat.Rat Num()/Den() values outside internal/rat",
	Run:  run,
}

func run(pass *lint.Pass) error {
	path := pass.Pkg.Path()
	if path == ratPkgPath || path == ratPkgPath+"_test" {
		return nil
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd.Body)
		}
	}
	return nil
}

// checkFunc runs the per-function taint analysis: values returned by
// rat.Rat.Num/Den are sources, assignment propagates, and any
// arithmetic or ordering on a tainted operand is reported.
func checkFunc(pass *lint.Pass, body *ast.BlockStmt) {
	tainted := make(map[types.Object]bool)

	var taintedExpr func(e ast.Expr) bool
	taintedExpr = func(e ast.Expr) bool {
		switch e := e.(type) {
		case *ast.ParenExpr:
			return taintedExpr(e.X)
		case *ast.Ident:
			if obj := pass.TypesInfo.Uses[e]; obj != nil {
				return tainted[obj]
			}
		case *ast.CallExpr:
			if isRatAccessor(pass, e) {
				return true
			}
			// A conversion like int64(x) or uint64(x) keeps the taint.
			if len(e.Args) == 1 {
				if tv, ok := pass.TypesInfo.Types[e.Fun]; ok && tv.IsType() {
					return taintedExpr(e.Args[0])
				}
			}
		case *ast.BinaryExpr:
			return taintedExpr(e.X) || taintedExpr(e.Y)
		case *ast.UnaryExpr:
			return taintedExpr(e.X)
		}
		return false
	}

	// Propagate taint through assignments to a fixpoint (the loop is
	// bounded by the number of assignable objects in the function).
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				if len(n.Lhs) != len(n.Rhs) {
					return true
				}
				for i, lhs := range n.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok || !taintedExpr(n.Rhs[i]) {
						continue
					}
					obj := pass.TypesInfo.Defs[id]
					if obj == nil {
						obj = pass.TypesInfo.Uses[id]
					}
					if obj != nil && !tainted[obj] {
						tainted[obj] = true
						changed = true
					}
				}
			case *ast.ValueSpec:
				for i, id := range n.Names {
					if i >= len(n.Values) || !taintedExpr(n.Values[i]) {
						continue
					}
					if obj := pass.TypesInfo.Defs[id]; obj != nil && !tainted[obj] {
						tainted[obj] = true
						changed = true
					}
				}
			}
			return true
		})
	}

	report := func(pos token.Pos, what string) {
		pass.Reportf(pos, "raw %s on a rat.Rat numerator/denominator (from Num/Den); "+
			"use the rat.Rat methods (Add/AddChecked/Mul/Cmp) so the int64 fast path cannot silently overflow", what)
	}

	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			switch n.Op {
			case token.ADD, token.SUB, token.MUL, token.QUO, token.REM:
				if taintedExpr(n.X) || taintedExpr(n.Y) {
					report(n.OpPos, "arithmetic ("+n.Op.String()+")")
					return false // innermost report is enough
				}
			case token.LSS, token.LEQ, token.GTR, token.GEQ:
				if taintedExpr(n.X) || taintedExpr(n.Y) {
					report(n.OpPos, "ordering ("+n.Op.String()+")")
					return false
				}
			case token.EQL, token.NEQ:
				// Equality against a constant (den == 0 style probes) has
				// IsZero/IsInf/Sign equivalents but cannot overflow; only
				// cross-value equality is flagged — it must use Eq/Cmp.
				if taintedExpr(n.X) && taintedExpr(n.Y) {
					report(n.OpPos, "equality ("+n.Op.String()+")")
					return false
				}
			}
		case *ast.AssignStmt:
			switch n.Tok {
			case token.ADD_ASSIGN, token.SUB_ASSIGN, token.MUL_ASSIGN, token.QUO_ASSIGN, token.REM_ASSIGN:
				for _, e := range append(append([]ast.Expr{}, n.Lhs...), n.Rhs...) {
					if taintedExpr(e) {
						report(n.TokPos, "arithmetic ("+n.Tok.String()+")")
						break
					}
				}
			}
		case *ast.IncDecStmt:
			if taintedExpr(n.X) {
				report(n.TokPos, "arithmetic ("+n.Tok.String()+")")
			}
		}
		return true
	})
}

// isRatAccessor reports whether call invokes rat.Rat.Num or rat.Rat.Den.
func isRatAccessor(pass *lint.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || (fn.Name() != "Num" && fn.Name() != "Den") {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Rat" && obj.Pkg() != nil && obj.Pkg().Path() == ratPkgPath
}
