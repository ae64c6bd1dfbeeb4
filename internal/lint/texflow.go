package lint

// This file is the texflow interprocedural layer: the function summaries
// shared by the concurrency-protocol analyzers (chanleak, chanprotocol,
// wgbalance) and the determinism-taint analyzer (mapiter). Where the
// texvet tier (cfg.go, dataflow.go) reasons within one function body,
// texflow computes per-function facts — what a function does to a channel
// or WaitGroup it receives, whether its return value is derived from map
// iteration order, whether a parameter flows into an emitting sink — and
// closes them over the module's static call graph by fixpoint iteration,
// so a call to a helper carries the helper's concurrency behaviour into
// the caller's analysis.
//
// The summaries are deliberately may-facts: "this function may send on its
// first channel parameter", never "must". Analyzers that need must-style
// reasoning (chanleak's every-path-to-exit check) combine the summaries
// with the CFG of the function under analysis. Ops performed inside a
// select statement are excluded from channel summaries: a select with
// several ready cases (or a default) is not a reliable block or release
// point, and the analyzers document this as a soundness limit.

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// ChanOps records what a function may do to one of its channel parameters,
// directly or through callees (transitively, via the fixpoint).
type ChanOps struct {
	Sends  bool
	Recvs  bool
	Closes bool
}

// WGOps records what a function may do to a *sync.WaitGroup parameter.
type WGOps struct {
	Adds  bool
	Dones bool
	Waits bool
}

// PublishMarker is the annotation naming a store-then-close publication
// contract: `//texsim:publishes <payload> <announce>` on a function
// declares that every close of a channel reached through a field or
// variable named <announce> must be preceded, in its own basic block, by a
// store into <payload>. It is the checkable encoding of the
// "store shards[f], then close(ready[f])" idiom.
const PublishMarker = "texsim:publishes"

// ClosesMarker designates a function as a sanctioned closer of a channel
// it did not create: `//texsim:closes <reason>`. chanprotocol flags closes
// of channel parameters without it.
const ClosesMarker = "texsim:closes"

// FlowFacts is the texflow interprocedural summary set, computed once per
// Run over every loaded package (see CollectFacts).
type FlowFacts struct {
	// ChanParams maps a function to the channel operations it may perform
	// on each parameter index.
	ChanParams map[*types.Func]map[int]*ChanOps
	// WGParams maps a function to the WaitGroup operations it may perform
	// on each *sync.WaitGroup parameter index.
	WGParams map[*types.Func]map[int]*WGOps
	// MapOrdered marks, per function, the result indices whose value may
	// be derived from map iteration order without an intervening sort.
	MapOrdered map[*types.Func]map[int]bool
	// ParamSinks marks parameter indices that may flow into an emitting
	// sink (output stream, telemetry emitter, trace writer) without an
	// intervening sort.
	ParamSinks map[*types.Func]map[int]bool
	// Publishes holds the raw fields of each function's texsim:publishes
	// annotation (expected: payload name, announce name).
	Publishes map[*types.Func][]string
	// Closers marks functions annotated texsim:closes.
	Closers map[*types.Func]bool
}

// flowDecl pairs a declared function with the package that type-checked it.
type flowDecl struct {
	fn   *types.Func
	decl *ast.FuncDecl
	pkg  *Package
}

// collectFlowFacts computes the texflow summaries for every function
// declared in the loaded packages, iterating to fixpoint so facts flow
// through call chains in any declaration order.
func collectFlowFacts(pkgs []*Package) *FlowFacts {
	ff := &FlowFacts{
		ChanParams: make(map[*types.Func]map[int]*ChanOps),
		WGParams:   make(map[*types.Func]map[int]*WGOps),
		MapOrdered: make(map[*types.Func]map[int]bool),
		ParamSinks: make(map[*types.Func]map[int]bool),
		Publishes:  make(map[*types.Func][]string),
		Closers:    make(map[*types.Func]bool),
	}
	var decls []flowDecl
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, d := range file.Decls {
				fn, ok := d.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				obj, ok := pkg.Info.Defs[fn.Name].(*types.Func)
				if !ok {
					continue
				}
				decls = append(decls, flowDecl{fn: obj, decl: fn, pkg: pkg})
				ff.parseMarkers(obj, fn)
			}
		}
	}
	// Summaries only grow, so iterating until a full pass changes nothing
	// terminates; the bound guards against a logic error, not real code.
	for iter := 0; iter < 32; iter++ {
		changed := false
		for _, d := range decls {
			if ff.scanFunc(d) {
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	return ff
}

// parseMarkers records texsim:publishes and texsim:closes annotations from
// the function's doc comment.
func (ff *FlowFacts) parseMarkers(obj *types.Func, fn *ast.FuncDecl) {
	if fn.Doc == nil {
		return
	}
	for _, c := range fn.Doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if rest, ok := strings.CutPrefix(text, PublishMarker); ok {
			ff.Publishes[obj] = strings.Fields(rest)
		}
		if strings.HasPrefix(text, ClosesMarker) {
			ff.Closers[obj] = true
		}
	}
}

// paramVars maps each named parameter object of the declaration to its
// index in the signature.
func paramVars(info *types.Info, decl *ast.FuncDecl) map[*types.Var]int {
	out := make(map[*types.Var]int)
	if decl.Type.Params == nil {
		return out
	}
	i := 0
	for _, field := range decl.Type.Params.List {
		if len(field.Names) == 0 {
			i++
			continue
		}
		for _, name := range field.Names {
			if v, ok := info.Defs[name].(*types.Var); ok {
				out[v] = i
			}
			i++
		}
	}
	return out
}

// isChanType reports whether t's underlying type is a channel.
func isChanType(t types.Type) bool {
	if t == nil {
		return false
	}
	_, ok := t.Underlying().(*types.Chan)
	return ok
}

// isWaitGroup reports whether t is sync.WaitGroup or *sync.WaitGroup.
func isWaitGroup(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	pkg := named.Obj().Pkg()
	return pkg != nil && pkg.Path() == "sync" && named.Obj().Name() == "WaitGroup"
}

// scanFunc recomputes one function's summaries, returning whether anything
// new was learned.
func (ff *FlowFacts) scanFunc(d flowDecl) bool {
	info := d.pkg.Info
	params := paramVars(info, d.decl)
	changed := false

	chanOps := func(idx int) *ChanOps {
		m := ff.ChanParams[d.fn]
		if m == nil {
			m = make(map[int]*ChanOps)
			ff.ChanParams[d.fn] = m
		}
		if m[idx] == nil {
			m[idx] = &ChanOps{}
		}
		return m[idx]
	}
	wgOps := func(idx int) *WGOps {
		m := ff.WGParams[d.fn]
		if m == nil {
			m = make(map[int]*WGOps)
			ff.WGParams[d.fn] = m
		}
		if m[idx] == nil {
			m[idx] = &WGOps{}
		}
		return m[idx]
	}
	set := func(dst *bool) {
		if !*dst {
			*dst = true
			changed = true
		}
	}

	// chanParamOf resolves an expression to a channel parameter index.
	chanParamOf := func(e ast.Expr) (int, bool) {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return 0, false
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok {
			return 0, false
		}
		idx, ok := params[v]
		return idx, ok && isChanType(v.Type())
	}
	// wgParamOf resolves wg / &wg to a WaitGroup parameter index.
	wgParamOf := func(e ast.Expr) (int, bool) {
		e = ast.Unparen(e)
		if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
			e = u.X
		}
		id, ok := e.(*ast.Ident)
		if !ok {
			return 0, false
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok {
			return 0, false
		}
		idx, ok := params[v]
		return idx, ok && isWaitGroup(v.Type())
	}

	var walk func(n ast.Node, inSelect bool)
	walk = func(n ast.Node, inSelect bool) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.SelectStmt:
				// Channel ops under a select are not summarized (see the
				// file comment); everything else inside still is.
				walk(m.Body, true)
				return false
			case *ast.SendStmt:
				if idx, ok := chanParamOf(m.Chan); ok && !inSelect {
					set(&chanOps(idx).Sends)
				}
			case *ast.UnaryExpr:
				if m.Op == token.ARROW {
					if idx, ok := chanParamOf(m.X); ok && !inSelect {
						set(&chanOps(idx).Recvs)
					}
				}
			case *ast.RangeStmt:
				if idx, ok := chanParamOf(m.X); ok {
					set(&chanOps(idx).Recvs)
				}
			case *ast.CallExpr:
				if isBuiltin(info, m, "close") && len(m.Args) == 1 {
					if idx, ok := chanParamOf(m.Args[0]); ok {
						set(&chanOps(idx).Closes)
					}
					return true
				}
				// Method calls on a WaitGroup parameter.
				if sel, ok := ast.Unparen(m.Fun).(*ast.SelectorExpr); ok {
					if idx, ok := wgParamOf(sel.X); ok {
						switch sel.Sel.Name {
						case "Add":
							set(&wgOps(idx).Adds)
						case "Done":
							set(&wgOps(idx).Dones)
						case "Wait":
							set(&wgOps(idx).Waits)
						}
					}
				}
				// Forwarding a parameter to a summarized callee inherits
				// the callee's ops for that position.
				callee, _ := calleeObj(info, m).(*types.Func)
				if callee == nil || callee == d.fn {
					return true
				}
				for ai, arg := range m.Args {
					if idx, ok := chanParamOf(arg); ok {
						if ops := ff.ChanParams[callee][ai]; ops != nil {
							if ops.Sends && !inSelect {
								set(&chanOps(idx).Sends)
							}
							if ops.Recvs && !inSelect {
								set(&chanOps(idx).Recvs)
							}
							if ops.Closes {
								set(&chanOps(idx).Closes)
							}
						}
					}
					if idx, ok := wgParamOf(arg); ok {
						if ops := ff.WGParams[callee][ai]; ops != nil {
							if ops.Adds {
								set(&wgOps(idx).Adds)
							}
							if ops.Dones {
								set(&wgOps(idx).Dones)
							}
							if ops.Waits {
								set(&wgOps(idx).Waits)
							}
						}
					}
				}
			}
			return true
		})
	}
	walk(d.decl.Body, false)

	// Map-order taint: does any return value derive from map iteration
	// order, and does any parameter reach a sink unsorted?
	tt := newTaintTracker(info, ff)
	tt.onReturn = func(_ *ast.ReturnStmt, ts []*taint) {
		for i, t := range ts {
			if t == nil || !t.mapOrder {
				continue
			}
			m := ff.MapOrdered[d.fn]
			if m == nil {
				m = make(map[int]bool)
				ff.MapOrdered[d.fn] = m
			}
			if !m[i] {
				m[i] = true
				changed = true
			}
		}
	}
	for v := range params {
		tt.state[v] = &taint{params: map[*types.Var]bool{v: true}}
	}
	tt.onSink = func(_ ast.Node, t *taint, _ string) {
		for pv := range t.params {
			idx, ok := params[pv]
			if !ok {
				continue
			}
			m := ff.ParamSinks[d.fn]
			if m == nil {
				m = make(map[int]bool)
				ff.ParamSinks[d.fn] = m
			}
			if !m[idx] {
				m[idx] = true
				changed = true
			}
		}
	}
	tt.walk(d.decl.Body)

	return changed
}

// ChanArgOps returns the summarized channel ops a call may perform on the
// given variable when it appears as a plain-identifier argument. It is the
// bridge analyzers use to see through helper calls like drain(ch).
func (ff *FlowFacts) ChanArgOps(info *types.Info, call *ast.CallExpr, v *types.Var) ChanOps {
	var out ChanOps
	callee, _ := calleeObj(info, call).(*types.Func)
	if callee == nil || ff == nil {
		return out
	}
	for ai, arg := range call.Args {
		id, ok := ast.Unparen(arg).(*ast.Ident)
		if !ok || info.Uses[id] != v {
			continue
		}
		if ops := ff.ChanParams[callee][ai]; ops != nil {
			out.Sends = out.Sends || ops.Sends
			out.Recvs = out.Recvs || ops.Recvs
			out.Closes = out.Closes || ops.Closes
		}
	}
	return out
}

// WGArgOps returns the summarized WaitGroup ops a call may perform on the
// given variable passed as wg or &wg.
func (ff *FlowFacts) WGArgOps(info *types.Info, call *ast.CallExpr, v *types.Var) WGOps {
	var out WGOps
	callee, _ := calleeObj(info, call).(*types.Func)
	if callee == nil || ff == nil {
		return out
	}
	for ai, arg := range call.Args {
		e := ast.Unparen(arg)
		if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
			e = u.X
		}
		id, ok := e.(*ast.Ident)
		if !ok || info.Uses[id] != v {
			continue
		}
		if ops := ff.WGParams[callee][ai]; ops != nil {
			out.Adds = out.Adds || ops.Adds
			out.Dones = out.Dones || ops.Dones
			out.Waits = out.Waits || ops.Waits
		}
	}
	return out
}
