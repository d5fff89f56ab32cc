// Package determcheck guards the repository's byte-identical
// reproducibility guarantee: every experiment driver renders the same
// bytes for any -workers value, and every analysis result is a pure
// function of its inputs (internal/experiments/determinism_test.go pins
// this dynamically; this analyzer pins the reasons it holds).
//
// In the determinism-critical packages — the declared list in
// lint.ByteIdenticalScope (the single source of truth the docs and
// this analyzer share), plus any package that uses a par.ForEach or
// par.Map fan-out (parallel code is in the guarantee's blast radius
// whether or not anyone remembered to declare it) — it flags the four
// ways nondeterminism has historically crept into such code:
//
//   - time.Now (and the rest of the wall clock): results must not
//     depend on when they are computed;
//   - the global math/rand functions, whose stream is shared and
//     seeded per process: randomness must come from an explicitly
//     seeded *rand.Rand (gen.Substream gives every sweep index its
//     own);
//   - map iteration, whose order is randomized per run, except for the
//     collect-keys-then-sort idiom;
//   - writes from a fan-out worker (a par.ForEach/par.Map callback or
//     a go statement's function literal) into a captured slice at an
//     index not derived from the worker's own fan-out index — the
//     per-index-slot discipline is what makes the parallel reduce
//     order-free.
//
// Test files are exempt: tests may time themselves and randomize
// freely, the guarantee is about what the library computes.
package determcheck

import (
	"go/ast"
	"go/types"

	"mcspeedup/internal/lint"
)

const parPkgPath = "mcspeedup/internal/par"

// randConstructors are the math/rand top-level functions that only
// build explicitly seeded generators and are therefore deterministic.
var randConstructors = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}

// Analyzer is the determcheck analyzer.
var Analyzer = &lint.Analyzer{
	Name: "determcheck",
	Doc:  "forbid wall clocks, global randomness, ordered map iteration and off-index fan-out writes in determinism-critical packages",
	Run:  run,
}

func run(pass *lint.Pass) error {
	if !lint.InByteIdenticalScope(pass.Pkg.Path()) && !usesParFanOut(pass) {
		return nil
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		checkIdentUses(pass, f)
		for _, decl := range f.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok && fd.Body != nil {
				checkMapRanges(pass, fd.Body)
			}
		}
		checkFanOutWrites(pass, f)
	}
	return nil
}

// usesParFanOut reports whether any non-test file of the package calls
// par.ForEach or par.Map — the auto-include trigger: a package that
// fans work out in parallel carries the byte-identical guarantee even
// if the declared scope list was never updated for it. (Merely
// importing par — say for its admission Pool — does not qualify.)
func usesParFanOut(pass *lint.Pass) bool {
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		found := false
		ast.Inspect(f, func(n ast.Node) bool {
			if found {
				return false
			}
			if call, ok := n.(*ast.CallExpr); ok && isParFanOut(pass, call) {
				found = true
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}

// checkIdentUses flags uses of time.Now and of the global math/rand
// functions.
func checkIdentUses(pass *lint.Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		fn, ok := pass.TypesInfo.Uses[id].(*types.Func)
		if !ok || fn.Pkg() == nil {
			return true
		}
		if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() != nil {
			return true // methods (e.g. (*rand.Rand).Int63n) are fine
		}
		switch fn.Pkg().Path() {
		case "time":
			if fn.Name() == "Now" || fn.Name() == "Since" || fn.Name() == "Until" {
				pass.Reportf(id.Pos(), "time.%s in a determinism-critical package: results must not depend on the wall clock", fn.Name())
			}
		case "math/rand", "math/rand/v2":
			if !randConstructors[fn.Name()] {
				pass.Reportf(id.Pos(), "global math/rand.%s in a determinism-critical package: use an explicitly seeded *rand.Rand (gen.Substream per sweep index)", fn.Name())
			}
		}
		return true
	})
}

// checkMapRanges flags range statements over maps, excepting the
// collect-then-sort idiom: a body that only appends to slices, inside a
// function that also calls into sort or slices.
func checkMapRanges(pass *lint.Pass, body *ast.BlockStmt) {
	sortsLater := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if pkgID, ok := sel.X.(*ast.Ident); ok {
				if pn, ok := pass.TypesInfo.Uses[pkgID].(*types.PkgName); ok {
					if p := pn.Imported().Path(); p == "sort" || p == "slices" {
						sortsLater = true
						return false
					}
				}
			}
		}
		return true
	})

	ast.Inspect(body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := pass.TypesInfo.TypeOf(rs.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		if sortsLater && onlyAppends(rs.Body) {
			return true
		}
		pass.Reportf(rs.For, "map iteration order is randomized per run; collect the keys, sort, and iterate the sorted slice (or //lint:ignore with a justification if the order provably cannot reach any output)")
		return true
	})
}

// onlyAppends reports whether every statement of the loop body is an
// append-to-slice assignment — the collection half of the sorted-keys
// idiom.
func onlyAppends(body *ast.BlockStmt) bool {
	for _, stmt := range body.List {
		as, ok := stmt.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != 1 || len(as.Rhs) != 1 {
			return false
		}
		call, ok := as.Rhs[0].(*ast.CallExpr)
		if !ok {
			return false
		}
		fn, ok := call.Fun.(*ast.Ident)
		if !ok || fn.Name != "append" {
			return false
		}
	}
	return true
}

// checkFanOutWrites flags writes to captured slices at indices not
// derived from the worker's own parameters, inside function literals
// that run concurrently (go statements and par.ForEach/par.Map
// callbacks).
func checkFanOutWrites(pass *lint.Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				checkWorkerLit(pass, lit, "go statement")
			}
		case *ast.CallExpr:
			if isParFanOut(pass, n) {
				for _, arg := range n.Args {
					if lit, ok := arg.(*ast.FuncLit); ok {
						checkWorkerLit(pass, lit, "par fan-out callback")
					}
				}
			}
		}
		return true
	})
}

// isParFanOut reports whether call invokes par.ForEach or par.Map.
func isParFanOut(pass *lint.Pass, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
	if !ok || fn.Pkg() == nil || fn.Pkg().Path() != parPkgPath {
		return false
	}
	return fn.Name() == "ForEach" || fn.Name() == "Map"
}

// checkWorkerLit checks one concurrently-invoked function literal: any
// assignment to captured[i] where i does not involve the literal's own
// parameters (or values derived from them) is an ordering hazard.
func checkWorkerLit(pass *lint.Pass, lit *ast.FuncLit, context string) {
	// Objects declared inside the literal, including its parameters.
	local := make(map[types.Object]bool)
	derived := make(map[types.Object]bool)
	ast.Inspect(lit, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := pass.TypesInfo.Defs[id]; obj != nil {
				local[obj] = true
			}
		}
		return true
	})
	if lit.Type.Params != nil {
		for _, field := range lit.Type.Params.List {
			for _, name := range field.Names {
				if obj := pass.TypesInfo.Defs[name]; obj != nil {
					derived[obj] = true
				}
			}
		}
	}

	mentionsDerived := func(e ast.Expr) bool {
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if obj := pass.TypesInfo.Uses[id]; obj != nil && derived[obj] {
					found = true
				}
			}
			return !found
		})
		return found
	}

	// Propagate "derived from a parameter" through local assignments.
	for changed := true; changed; {
		changed = false
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			as, ok := n.(*ast.AssignStmt)
			if !ok || len(as.Lhs) != len(as.Rhs) {
				return true
			}
			for i, lhs := range as.Lhs {
				id, ok := lhs.(*ast.Ident)
				if !ok || !mentionsDerived(as.Rhs[i]) {
					continue
				}
				obj := pass.TypesInfo.Defs[id]
				if obj == nil {
					obj = pass.TypesInfo.Uses[id]
				}
				if obj != nil && local[obj] && !derived[obj] {
					derived[obj] = true
					changed = true
				}
			}
			return true
		})
	}

	ast.Inspect(lit.Body, func(n ast.Node) bool {
		if inner, ok := n.(*ast.FuncLit); ok && inner != lit {
			return false // nested literals are checked on their own launch sites
		}
		as, ok := n.(*ast.AssignStmt)
		if !ok {
			return true
		}
		for _, lhs := range as.Lhs {
			ix, ok := lhs.(*ast.IndexExpr)
			if !ok {
				continue
			}
			base, ok := ix.X.(*ast.Ident)
			if !ok {
				continue
			}
			obj := pass.TypesInfo.Uses[base]
			if obj == nil || local[obj] {
				continue // the worker's own slice is its business
			}
			if _, isSlice := obj.Type().Underlying().(*types.Slice); !isSlice {
				continue
			}
			if mentionsDerived(ix.Index) {
				continue // the per-index-slot discipline: out[i] = ...
			}
			pass.Reportf(ix.Pos(), "write to captured slice %s at an index not derived from the %s's own index parameter: concurrent workers race and the reduce order becomes schedule-dependent", base.Name, context)
		}
		return true
	})
}
