// Package plancheck enforces the containment contract of the compiled
// columnar demand plans (see the "Columnar demand plans" section of
// docs/PERF.md). The plan is a struct-of-arrays lowering of a task set;
// its correctness rests on two invariants that types alone cannot carry
// across packages, so this analyzer pins them:
//
//  1. No hand-built plans: a dbf.Plan (or dbf.PointMemo) composite
//     literal outside internal/dbf bypasses CompilePlan/Compile and can
//     leave the columns mutually inconsistent (lengths, carry geometry,
//     reciprocal cache). Plans must be produced by the compile entry
//     points. Raw column *indexing* is already impossible outside
//     internal/dbf — the columns are unexported — so flagging raw
//     construction closes the remaining hole.
//  2. Confined API: Plan/PointMemo methods (and dbf.CompilePlan) may be
//     called only from internal/core, the analysis layer that owns the
//     walkers. Higher layers (server, experiments, cmd) consume demand
//     through core's analyses; letting them hold plans would decouple a
//     plan from the set fingerprint that keyed it, breaking the
//     "plan reuse requires fingerprint match" rule that PointMemo.Value
//     checks internally.
//
// Test files are exempt everywhere.
package plancheck

import (
	"go/ast"
	"go/types"

	"mcspeedup/internal/lint"
)

const (
	dbfPkgPath  = "mcspeedup/internal/dbf"
	corePkgPath = "mcspeedup/internal/core"
)

// Analyzer is the plancheck analyzer.
var Analyzer = &lint.Analyzer{
	Name: "plancheck",
	Doc:  "confine the columnar demand-plan API to internal/dbf + internal/core",
	Run:  run,
}

func run(pass *lint.Pass) error {
	pkgPath := pass.Pkg.Path()
	if pkgPath == dbfPkgPath {
		return nil
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		checkLiterals(pass, f)
		if pkgPath != corePkgPath {
			checkConfinement(pass, f)
		}
	}
	return nil
}

// checkLiterals flags dbf.Plan / dbf.PointMemo composite literals (rule
// 1): outside internal/dbf the only way to obtain a usable plan is the
// compile entry points. Embedding the zero value as a struct field is
// fine and not a literal.
func checkLiterals(pass *lint.Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		cl, ok := n.(*ast.CompositeLit)
		if !ok {
			return true
		}
		if name := dbfPlanTypeName(pass, cl); name != "" {
			pass.Reportf(cl.Pos(), "dbf.%s composite literal: construct plans with dbf.CompilePlan or (*dbf.Plan).Compile so the columns stay mutually consistent", name)
		}
		return true
	})
}

// checkConfinement flags Plan/PointMemo method calls and dbf.CompilePlan
// outside internal/core (rule 2).
func checkConfinement(pass *lint.Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
		if !ok || fn.Pkg() == nil || fn.Pkg().Path() != dbfPkgPath {
			return true
		}
		recv := recvTypeName(fn)
		if recv == "Plan" || recv == "PointMemo" || (recv == "" && fn.Name() == "CompilePlan") {
			pass.Reportf(sel.Pos(), "the columnar demand-plan API (%s) is confined to internal/core: evaluate demand through the core analyses so plan reuse stays keyed by set fingerprint", sel.Sel.Name)
		}
		return true
	})
}

// recvTypeName returns the name of fn's receiver named type ("" for
// package-level functions).
func recvTypeName(fn *types.Func) string {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// dbfPlanTypeName returns "Plan" or "PointMemo" when the composite
// literal's type is the corresponding dbf type, "" otherwise.
func dbfPlanTypeName(pass *lint.Pass, cl *ast.CompositeLit) string {
	tv, ok := pass.TypesInfo.Types[cl]
	if !ok {
		return ""
	}
	t := tv.Type
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil || named.Obj().Pkg().Path() != dbfPkgPath {
		return ""
	}
	switch name := named.Obj().Name(); name {
	case "Plan", "PointMemo":
		return name
	}
	return ""
}
