// Package ctxcheck enforces deadline propagation across the serving
// and cluster tiers: every HTTP or peer call made while handling a
// request must carry a context that traces back to the inbound
// request's, so caller deadlines and drain budgets cross the forward
// hop (the "Forwarding rules" section of docs/SERVING.md; previously
// rule 1 of clustercheck, per-package and blind to helpers).
//
// The analyzer tracks, per function, outbound calls that are *provably
// detached* from any inbound context:
//
//   - http.NewRequest (carries no context at all);
//   - http.Get/Head/Post/PostForm (implicit context.Background);
//   - http.NewRequestWithContext or cluster's Forward fed a context
//     freshly minted in the function — context.Background/TODO, or any
//     context.With* chain rooted in one.
//
// A function making such calls — directly or by calling another module
// function that does — exports a Detached fact listing them. Inside
// the serving tiers (mcspeedup/internal/server and
// mcspeedup/internal/cluster) the analyzer reports every detached
// outbound call, every direct context.Background/TODO, and every call
// to a module function carrying a Detached fact, wherever that
// function lives.
//
// Only *provably fresh* contexts are flagged: a context of unknown
// provenance (a parameter, r.Context(), a struct field) is assumed
// derived. That keeps the analysis free of false positives on
// legitimate plumbing — the cost is that a detachment laundered
// through a context-typed struct field is not seen. Test files are
// exempt.
package ctxcheck

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"mcspeedup/internal/lint"
)

const modulePrefix = "mcspeedup"

// scopedPkgs are the request-serving tiers where detached outbound
// calls are reported (facts are computed module-wide).
var scopedPkgs = map[string]bool{
	"mcspeedup/internal/cluster": true,
	"mcspeedup/internal/server":  true,
}

// Detached is the per-function fact: the provably-detached outbound
// calls this function makes, directly or transitively.
type Detached struct {
	Calls []string `json:"calls"`
}

// AFact marks Detached as a lint fact.
func (*Detached) AFact() {}

// Analyzer is the ctxcheck analyzer.
var Analyzer = &lint.Analyzer{
	Name:      "ctxcheck",
	Doc:       "require serving-tier HTTP and peer calls to trace back to the inbound request context, via Detached facts",
	FactTypes: []lint.Fact{(*Detached)(nil)},
	Run:       run,
}

// event is one direct detached outbound call.
type event struct {
	pos     token.Pos
	call    string // stable description, e.g. "net/http.Get"
	message string
}

// moduleCall is a call to a module function, resolved against facts or
// same-package summaries during the fixed point.
type moduleCall struct {
	pos    token.Pos
	callee *types.Func
}

type funcInfo struct {
	fn     *types.Func
	name   string
	events []event
	calls  []moduleCall
	bgPos  []token.Pos // direct context.Background/TODO calls
	bgName []string
	out    map[string]bool // accumulated Detached.Calls
}

func run(pass *lint.Pass) error {
	self := pass.Pkg.Path()
	scoped := scopedPkgs[self]

	var infos []*funcInfo
	byFunc := make(map[*types.Func]*funcInfo)
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
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

	// Transitive closure: a caller inherits its callees' detached
	// calls, through same-package summaries and imported facts.
	calleeCalls := func(c moduleCall) []string {
		if fi, ok := byFunc[c.callee]; ok {
			return sortedCalls(fi.out)
		}
		var fact Detached
		if pass.ImportObjectFact(c.callee, &fact) {
			return fact.Calls
		}
		return nil
	}
	for changed := true; changed; {
		changed = false
		for _, fi := range infos {
			for _, c := range fi.calls {
				for _, call := range calleeCalls(c) {
					if !fi.out[call] {
						fi.out[call] = true
						changed = true
					}
				}
			}
		}
	}

	for _, fi := range infos {
		if calls := sortedCalls(fi.out); len(calls) > 0 {
			pass.ExportObjectFact(fi.fn, &Detached{Calls: calls})
		}
	}

	if !scoped {
		return nil
	}
	for _, fi := range infos {
		for i, pos := range fi.bgPos {
			pass.Reportf(pos, "%s starts a fresh context.%s in the serving tier: derive from the inbound request context so caller deadlines and drain budgets propagate", fi.name, fi.bgName[i])
		}
		for _, e := range fi.events {
			pass.Reportf(e.pos, "%s", e.message)
		}
		for _, c := range fi.calls {
			calls := calleeCalls(c)
			if len(calls) == 0 {
				continue
			}
			calleePkg := ""
			if c.callee.Pkg() != nil {
				calleePkg = c.callee.Pkg().Path()
			}
			pass.Reportf(c.pos, "%s calls %s.%s, whose outbound calls are detached from the inbound context (%s): thread the request context through (Detached fact)",
				fi.name, calleePkg, c.callee.Name(), strings.Join(calls, ", "))
		}
	}
	return nil
}

func sortedCalls(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for c := range m {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// walkFunc collects one function's detached outbound calls. Freshness
// is a forward taint over the body (function literals included, with
// the enclosing bindings visible): context.Background/TODO seed it,
// context.With* and plain assignment propagate it.
func walkFunc(pass *lint.Pass, fd *ast.FuncDecl, fn *types.Func) *funcInfo {
	fi := &funcInfo{fn: fn, name: fd.Name.Name, out: make(map[string]bool)}
	fresh := make(map[types.Object]bool)

	var isFresh func(e ast.Expr) bool
	isFresh = func(e ast.Expr) bool {
		switch e := e.(type) {
		case *ast.ParenExpr:
			return isFresh(e.X)
		case *ast.Ident:
			return fresh[pass.TypesInfo.Uses[e]]
		case *ast.CallExpr:
			callee := calleeFunc(pass, e)
			if callee == nil || callee.Pkg() == nil || callee.Pkg().Path() != "context" {
				return false
			}
			switch callee.Name() {
			case "Background", "TODO":
				return true
			case "WithCancel", "WithDeadline", "WithTimeout", "WithValue", "WithoutCancel":
				return len(e.Args) > 0 && isFresh(e.Args[0])
			}
		}
		return false
	}

	record := func(pos token.Pos, call, message string) {
		fi.events = append(fi.events, event{pos: pos, call: call, message: message})
		fi.out[call] = true
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			// ctx := context.Background() / ctx, cancel := context.WithTimeout(parent, d)
			if len(n.Rhs) == 1 {
				if call, ok := n.Rhs[0].(*ast.CallExpr); ok && isFresh(call) {
					if id, ok := n.Lhs[0].(*ast.Ident); ok {
						if obj := identObj(pass, id); obj != nil {
							fresh[obj] = true
						}
					}
					return true
				}
			}
			if len(n.Lhs) == len(n.Rhs) {
				for i, lhs := range n.Lhs {
					if !isFresh(n.Rhs[i]) {
						continue
					}
					if id, ok := lhs.(*ast.Ident); ok {
						if obj := identObj(pass, id); obj != nil {
							fresh[obj] = true
						}
					}
				}
			}
		case *ast.CallExpr:
			callee := calleeFunc(pass, n)
			if callee == nil {
				return true
			}
			pkg := ""
			if callee.Pkg() != nil {
				pkg = callee.Pkg().Path()
			}
			name := callee.Name()
			// The context and net/http cases match package-level
			// functions only: http.Header.Get is a method sharing a
			// name with the convenience client and detaches nothing.
			// (cluster's Forward, by contrast, is meant to match as
			// the method it is.)
			pkgFunc := true
			if sig, ok := callee.Type().(*types.Signature); ok && sig.Recv() != nil {
				pkgFunc = false
			}
			switch pkg {
			case "context":
				if pkgFunc && (name == "Background" || name == "TODO") {
					fi.bgPos = append(fi.bgPos, n.Pos())
					fi.bgName = append(fi.bgName, name)
				}
			case "net/http":
				if !pkgFunc {
					break
				}
				switch name {
				case "NewRequest":
					record(n.Pos(), "net/http.NewRequest",
						fi.name+" builds a peer request with http.NewRequest: use http.NewRequestWithContext so the inbound request's deadline crosses the forward hop")
				case "Get", "Head", "Post", "PostForm":
					record(n.Pos(), "net/http."+name,
						fi.name+" calls http."+name+", which detaches from the inbound context (implicit context.Background): build the request with http.NewRequestWithContext instead")
				case "NewRequestWithContext":
					if len(n.Args) > 0 && isFresh(n.Args[0]) {
						record(n.Pos(), "net/http.NewRequestWithContext(fresh context)",
							fi.name+" hands http.NewRequestWithContext a provably fresh context: derive it from the inbound request context so deadlines propagate")
					}
				}
			case "mcspeedup/internal/cluster":
				if name == "Forward" && len(n.Args) > 0 && isFresh(n.Args[0]) {
					record(n.Pos(), "cluster.Forward(fresh context)",
						fi.name+" feeds Forward a provably fresh context: the peer hop must inherit the inbound request's deadline")
				}
			}
			if strings.HasPrefix(pkg, modulePrefix) && (pkg == modulePrefix || strings.HasPrefix(pkg, modulePrefix+"/")) {
				fi.calls = append(fi.calls, moduleCall{pos: n.Pos(), callee: callee})
			}
		}
		return true
	})
	return fi
}

// identObj resolves an identifier in either Defs or Uses.
func identObj(pass *lint.Pass, id *ast.Ident) types.Object {
	if obj := pass.TypesInfo.Defs[id]; obj != nil {
		return obj
	}
	return pass.TypesInfo.Uses[id]
}

// calleeFunc resolves the called function or method, nil when the
// callee is not a named function.
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
