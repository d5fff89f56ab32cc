// Package borrowcheck is the unified, interprocedural escape analysis
// for the module's two scratch arenas: core.Scratch (the analysis
// walker arena, PR 3) and sim.Scratch (the simulation arena, PR 8).
// Both types serialize the walks/runs that borrow them and must never
// outlive the call that threaded them through — the per-package halves
// of this rule used to live in scratchcheck and simcheck; borrowcheck
// replaces them with one analyzer that also sees across package
// boundaries, via the facts layer.
//
// Per function, the analyzer computes which arena-typed parameters the
// function *retains* — stores into a struct field, container element or
// package-level variable, sends on a channel, hands to a go statement,
// captures in a concurrently-launched callback, or passes on to another
// retaining function — and exports the result as a Borrows fact on the
// function object. Dependent packages import those facts, so a
// laundering helper in another package is as visible as a local store:
//
//	// package keep
//	func Hold(s *core.Scratch) { global = s }   // fact: Borrows{Retains:[0]}
//
//	// package user
//	keep.Hold(sc)                               // diagnostic here
//
// Direct retention events are reported where they happen; passing an
// arena to a function whose fact says it retains that position is
// reported at the call. Returning a borrowed arena *parameter* is
// reported too (a passthrough alias extends the borrow), but does not
// mark the parameter retained — a discarded passthrough result escapes
// nothing, and a stored one is flagged at the store. Constructors
// returning locally allocated arenas stay clean.
//
// Exemptions: each arena's owner package manages its own arena freely
// (pools, Options plumbing), so no facts or diagnostics are produced
// for an arena inside its owner; stores into fields *declared by* the
// owner package (core.Options.Scratch, the sanctioned per-call
// channel) are clean everywhere; and test files are exempt — the
// arenas' own tests deliberately construct sharing patterns to pin
// their runtime behavior.
package borrowcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"

	"mcspeedup/internal/lint"
)

// owners maps each arena's owner package to the arena type name.
var owners = map[string]string{
	"mcspeedup/internal/core": "Scratch",
	"mcspeedup/internal/sim":  "Scratch",
}

const parPkgPath = "mcspeedup/internal/par"

// Borrows is the per-function fact: the 0-based signature parameter
// indexes whose arena argument is retained beyond the call.
type Borrows struct {
	Retains []int `json:"retains"`
}

// AFact marks Borrows as a lint fact.
func (*Borrows) AFact() {}

// Analyzer is the borrowcheck analyzer.
var Analyzer = &lint.Analyzer{
	Name:      "borrowcheck",
	Doc:       "forbid core.Scratch/sim.Scratch arenas outliving their borrow, across package boundaries via Borrows facts",
	FactTypes: []lint.Fact{(*Borrows)(nil)},
	Run:       run,
}

// arenaOwner returns the owner package path when t is an arena type
// (or a pointer to one).
func arenaOwner(t types.Type) (string, bool) {
	if t == nil {
		return "", false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return "", false
	}
	obj := named.Obj()
	if obj.Pkg() == nil {
		return "", false
	}
	pkg := obj.Pkg().Path()
	if name, ok := owners[pkg]; ok && obj.Name() == name {
		return pkg, true
	}
	return "", false
}

// arenaLabel names an arena type for diagnostics: "core.Scratch".
func arenaLabel(owner string) string {
	base := owner
	for i := len(owner) - 1; i >= 0; i-- {
		if owner[i] == '/' {
			base = owner[i+1:]
			break
		}
	}
	return base + "." + owners[owner]
}

// event is one direct retention observed in a function body.
type event struct {
	pos     token.Pos
	message string
	param   int    // implicated parameter index, -1 for locals
	owner   string // arena owner package of the retained value
	factual bool   // contributes to the Borrows fact (returns do not)
}

// callArg is one arena-typed argument at a call site, resolved later
// against the callee's Borrows summary or fact.
type callArg struct {
	pos       token.Pos
	callee    *types.Func
	calleeIdx int // parameter position in the callee
	param     int // caller parameter index when the argument is one, else -1
	owner     string
	argText   string
}

// funcInfo is the per-function analysis state.
type funcInfo struct {
	fn      *types.Func
	events  []event
	calls   []callArg
	retains map[int]string // parameter index -> arena owner package
}

func run(pass *lint.Pass) error {
	self := pass.Pkg.Path()

	var infos []*funcInfo
	byFunc := make(map[*types.Func]*funcInfo)
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		checkStructFields(pass, f, self)
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			fn, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			if fn == nil {
				continue
			}
			fi := walkFunc(pass, fd, fn)
			infos = append(infos, fi)
			byFunc[fn] = fi
		}
	}

	// Interprocedural fixed point: a parameter passed to a retaining
	// callee (same-package summary or imported fact) is itself
	// retained. The package's call graph is finite and retains only
	// grows, so this terminates.
	calleeRetains := func(c callArg) bool {
		if fi, ok := byFunc[c.callee]; ok {
			_, ok := fi.retains[c.calleeIdx]
			return ok
		}
		var fact Borrows
		if !pass.ImportObjectFact(c.callee, &fact) {
			return false
		}
		for _, idx := range fact.Retains {
			if idx == c.calleeIdx {
				return true
			}
		}
		return false
	}
	for changed := true; changed; {
		changed = false
		for _, fi := range infos {
			for _, c := range fi.calls {
				if c.param < 0 || fi.retains[c.param] != "" {
					continue
				}
				if calleeRetains(c) {
					fi.retains[c.param] = c.owner
					changed = true
				}
			}
		}
	}

	// Facts: retained parameters, minus each arena's owner package
	// managing its own type.
	for _, fi := range infos {
		var idxs []int
		for idx, owner := range fi.retains {
			if owner != self {
				idxs = append(idxs, idx)
			}
		}
		if len(idxs) > 0 {
			sort.Ints(idxs)
			pass.ExportObjectFact(fi.fn, &Borrows{Retains: idxs})
		}
	}

	// Diagnostics: direct events, plus arena arguments escaping into
	// retaining callees. The owner package is exempt for its own arena.
	for _, fi := range infos {
		for _, e := range fi.events {
			if e.owner == self {
				continue
			}
			pass.Reportf(e.pos, "%s", e.message)
		}
		for _, c := range fi.calls {
			if c.owner == self || !calleeRetains(c) {
				continue
			}
			calleePkg := ""
			if c.callee.Pkg() != nil {
				calleePkg = c.callee.Pkg().Path()
			}
			pass.Reportf(c.pos, "%s %s escapes into %s.%s, which retains its parameter %d beyond the call (Borrows fact): the arena outlives this borrow; pass a value the callee may keep, or fix the callee",
				arenaLabel(c.owner), c.argText, calleePkg, c.callee.Name(), c.calleeIdx)
		}
	}
	return nil
}

// checkStructFields flags struct declarations retaining an arena whose
// owner is another package.
func checkStructFields(pass *lint.Pass, f *ast.File, self string) {
	ast.Inspect(f, func(n ast.Node) bool {
		st, ok := n.(*ast.StructType)
		if !ok {
			return true
		}
		for _, field := range st.Fields.List {
			t := pass.TypesInfo.TypeOf(field.Type)
			if owner, ok := arenaOwner(t); ok && owner != self {
				pass.Reportf(field.Type.Pos(), "%s stored in a struct field: an arena retained beyond its borrow invites cross-goroutine sharing; thread it through the owner's per-call Options instead", arenaLabel(owner))
			}
		}
		return true
	})
}

// walkFunc collects one function's direct retention events and the
// arena-typed arguments of its call sites.
func walkFunc(pass *lint.Pass, fd *ast.FuncDecl, fn *types.Func) *funcInfo {
	fi := &funcInfo{fn: fn, retains: make(map[int]string)}
	sig := fn.Type().(*types.Signature)
	paramIdx := make(map[types.Object]int, sig.Params().Len())
	for i := 0; i < sig.Params().Len(); i++ {
		paramIdx[sig.Params().At(i)] = i
	}
	paramOf := func(e ast.Expr) int {
		id, ok := e.(*ast.Ident)
		if !ok {
			return -1
		}
		if idx, ok := paramIdx[pass.TypesInfo.Uses[id]]; ok {
			return idx
		}
		return -1
	}
	record := func(pos token.Pos, owner string, param int, factual bool, message string) {
		fi.events = append(fi.events, event{pos: pos, message: message, param: param, owner: owner, factual: factual})
		if factual && param >= 0 {
			fi.retains[param] = owner
		}
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if len(n.Lhs) != len(n.Rhs) {
				return true
			}
			for i, lhs := range n.Lhs {
				rhs := n.Rhs[i]
				owner, ok := arenaOwner(pass.TypesInfo.TypeOf(rhs))
				if !ok {
					continue
				}
				label := arenaLabel(owner)
				switch lhs := lhs.(type) {
				case *ast.SelectorExpr:
					if sel, ok := pass.TypesInfo.Selections[lhs]; ok {
						fieldPkg := ""
						if sel.Obj().Pkg() != nil {
							fieldPkg = sel.Obj().Pkg().Path()
						}
						if fieldPkg == owner {
							continue // the owner's sanctioned field (core.Options.Scratch)
						}
						record(rhs.Pos(), owner, paramOf(rhs), true,
							label+" stored in a struct field: an arena retained beyond its borrow invites cross-goroutine sharing; thread it through the owner's per-call Options instead")
					} else if obj := pass.TypesInfo.Uses[lhs.Sel]; obj != nil && isPackageLevelVar(obj) {
						record(rhs.Pos(), owner, paramOf(rhs), true,
							label+" stored in a package-level variable: the arena outlives every borrow; allocate per call or per worker instead")
					}
				case *ast.IndexExpr:
					record(rhs.Pos(), owner, paramOf(rhs), true,
						label+" stored in a container element: the container outlives the borrow; allocate per call or per worker instead")
				case *ast.Ident:
					if obj := identObj(pass, lhs); obj != nil && isPackageLevelVar(obj) {
						record(rhs.Pos(), owner, paramOf(rhs), true,
							label+" stored in a package-level variable: the arena outlives every borrow; allocate per call or per worker instead")
					}
				}
			}
		case *ast.SendStmt:
			if owner, ok := arenaOwner(pass.TypesInfo.TypeOf(n.Value)); ok {
				record(n.Value.Pos(), owner, paramOf(n.Value), true,
					arenaLabel(owner)+" sent on a channel: the receiver outlives the borrow and may run concurrently; pass results, not arenas")
			}
		case *ast.ReturnStmt:
			for _, res := range n.Results {
				owner, ok := arenaOwner(pass.TypesInfo.TypeOf(res))
				if !ok {
					continue
				}
				if p := paramOf(res); p >= 0 {
					record(res.Pos(), owner, p, false,
						"borrowed "+arenaLabel(owner)+" parameter returned: the passthrough alias extends the borrow past this call; return results, not the caller's arena")
				}
			}
		case *ast.GoStmt:
			for _, arg := range n.Call.Args {
				if owner, ok := arenaOwner(pass.TypesInfo.TypeOf(arg)); ok {
					record(arg.Pos(), owner, paramOf(arg), true,
						arenaLabel(owner)+" passed into a go statement: a Scratch must not be shared between goroutines; allocate one per worker")
				}
			}
			if lit, ok := n.Call.Fun.(*ast.FuncLit); ok {
				checkLitCapture(pass, fi, paramIdx, lit)
			}
		case *ast.CompositeLit:
			checkCompositeLit(pass, fi, paramOf, n)
		case *ast.CallExpr:
			if isParFanOut(pass, n) {
				for _, arg := range n.Args {
					if lit, ok := arg.(*ast.FuncLit); ok {
						checkLitCapture(pass, fi, paramIdx, lit)
					}
				}
			}
			recordCallArgs(pass, fi, paramOf, n)
		}
		return true
	})
	return fi
}

// identObj resolves an identifier in either Uses or Defs.
func identObj(pass *lint.Pass, id *ast.Ident) types.Object {
	if obj := pass.TypesInfo.Uses[id]; obj != nil {
		return obj
	}
	return pass.TypesInfo.Defs[id]
}

// isPackageLevelVar reports whether obj is a package-scope variable.
func isPackageLevelVar(obj types.Object) bool {
	v, ok := obj.(*types.Var)
	return ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
}

// checkCompositeLit flags arena values placed into composite literals —
// a struct, slice or map value that retains the arena — except the
// owner package's own struct types (core.Options{Scratch: sc} is the
// sanctioned per-call channel).
func checkCompositeLit(pass *lint.Pass, fi *funcInfo, paramOf func(ast.Expr) int, lit *ast.CompositeLit) {
	litType := pass.TypesInfo.TypeOf(lit)
	litPkg := ""
	if named, ok := deref(litType).(*types.Named); ok && named.Obj().Pkg() != nil {
		litPkg = named.Obj().Pkg().Path()
	}
	for _, elt := range lit.Elts {
		val := elt
		if kv, ok := elt.(*ast.KeyValueExpr); ok {
			val = kv.Value
		}
		owner, ok := arenaOwner(pass.TypesInfo.TypeOf(val))
		if !ok || litPkg == owner {
			continue
		}
		fi.events = append(fi.events, event{
			pos:     val.Pos(),
			owner:   owner,
			param:   paramOf(val),
			factual: true,
			message: arenaLabel(owner) + " stored in a composite literal: the containing value outlives the borrow; thread the arena through the owner's per-call Options instead",
		})
		if p := paramOf(val); p >= 0 {
			fi.retains[p] = owner
		}
	}
}

// deref strips one pointer level.
func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// recordCallArgs notes every arena-typed argument for the fixed point
// and the escaping-call diagnostics.
func recordCallArgs(pass *lint.Pass, fi *funcInfo, paramOf func(ast.Expr) int, call *ast.CallExpr) {
	callee := calleeFunc(pass, call)
	if callee == nil {
		return
	}
	sig, ok := callee.Type().(*types.Signature)
	if !ok {
		return
	}
	for i, arg := range call.Args {
		owner, okArena := arenaOwner(pass.TypesInfo.TypeOf(arg))
		if !okArena {
			continue
		}
		idx := i
		if sig.Variadic() && idx >= sig.Params().Len()-1 {
			continue // arenas folded into variadics are not tracked
		}
		if idx >= sig.Params().Len() {
			continue
		}
		text := "argument"
		if id, ok := arg.(*ast.Ident); ok {
			text = id.Name
		}
		fi.calls = append(fi.calls, callArg{
			pos: arg.Pos(), callee: callee, calleeIdx: idx,
			param: paramOf(arg), owner: owner, argText: text,
		})
	}
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

// checkLitCapture flags uses, inside a concurrently-invoked literal, of
// arena-typed variables declared outside it. A captured enclosing
// parameter also marks that parameter retained.
func checkLitCapture(pass *lint.Pass, fi *funcInfo, paramIdx map[types.Object]int, lit *ast.FuncLit) {
	local := make(map[types.Object]bool)
	ast.Inspect(lit, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if obj := pass.TypesInfo.Defs[id]; obj != nil {
				local[obj] = true
			}
		}
		return true
	})
	ast.Inspect(lit.Body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := pass.TypesInfo.Uses[id]
		if obj == nil || local[obj] {
			return true
		}
		// Fields are not captures: a keyed composite literal's
		// `Scratch: x` key (and a field selector) resolves to the
		// arena-typed field object, but the captured variable — if
		// any — is the value expression, which is inspected separately.
		v, ok := obj.(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if owner, ok := arenaOwner(v.Type()); ok {
			param := -1
			if idx, isParam := paramIdx[obj]; isParam {
				param = idx
			}
			fi.events = append(fi.events, event{
				pos:     id.Pos(),
				owner:   owner,
				param:   param,
				factual: true,
				message: arenaLabel(owner) + " " + id.Name + " captured by a concurrently-launched function: a Scratch must not be shared between goroutines; allocate one per worker",
			})
			if param >= 0 {
				fi.retains[param] = owner
			}
		}
		return true
	})
}

// calleeFunc resolves the called function or method, nil when the
// callee is not a named function (a func value, conversion, builtin).
func calleeFunc(pass *lint.Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := call.Fun.(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pass.TypesInfo.Uses[id].(*types.Func)
	return fn
}
