// Package prunecheck enforces the event budget of the demand walks in
// internal/core (see the "Event pruning" section of docs/PERF.md): every
// function that starts a walk — calls Options.acquireWalker — must
// consult the event budget (Options.MaxEvents or the maxEvents helper).
// An uncapped pseudo-polynomial walk can run effectively forever on
// adversarial parameters; the budget turns that into a reported, inexact
// (or error) result.
//
// The rule applies only inside mcspeedup/internal/core — the walker does
// not leave that package — and exempts test files.
package prunecheck

import (
	"go/ast"
	"go/types"

	"mcspeedup/internal/lint"
)

const corePkgPath = "mcspeedup/internal/core"

// Analyzer is the prunecheck analyzer.
var Analyzer = &lint.Analyzer{
	Name: "prunecheck",
	Doc:  "require an event budget on every demand walk",
	Run:  run,
}

func run(pass *lint.Pass) error {
	if lint.CanonicalPath(pass.Pkg.Path()) != corePkgPath {
		return nil
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil
}

// checkFunc applies the rule to one function body.
func checkFunc(pass *lint.Pass, fd *ast.FuncDecl) {
	var (
		acquire       ast.Node // first Options.acquireWalker call
		readsMaxEvent bool
	)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[sel.Sel]
		if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != pass.Pkg.Path() {
			return true
		}
		switch obj := obj.(type) {
		case *types.Func:
			switch obj.Name() {
			case "acquireWalker":
				if acquire == nil {
					acquire = sel
				}
			case "maxEvents":
				readsMaxEvent = true
			}
		case *types.Var:
			if obj.IsField() && obj.Name() == "MaxEvents" {
				readsMaxEvent = true
			}
		}
		return true
	})
	if acquire != nil && !readsMaxEvent {
		pass.Reportf(acquire.Pos(), "%s starts a demand walk (acquireWalker) without consulting Options.MaxEvents (or maxEvents): unbudgeted pseudo-polynomial walks can run unbounded on adversarial parameters", fd.Name.Name)
	}
}
