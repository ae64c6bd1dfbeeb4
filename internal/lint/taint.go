package lint

// Map-order taint engine shared by the mapiter analyzer and the texflow
// summary pass. A value is tainted when it may depend on Go's randomized
// map iteration order: the key/value of a range over a map, the result of
// maps.Keys/maps.Values, or the result of a function summarized as
// MapOrdered. Taint propagates through assignments, append, arithmetic,
// composite literals, and ordinary calls (a helper that formats tainted
// keys returns tainted output); it is cleared by the sort family
// (sort.Strings, slices.Sort, slices.Sorted, ...) and by reassignment from
// a clean value. Each taint value also carries its origin parameters so
// the texflow pass can summarize "parameter i of f reaches a sink".
//
// The walk is in source order, one pass, may-style: a taint assigned in
// one branch survives into the join. Sorting later in the text clears it,
// which matches the repo's collect-then-sort idiom.

import (
	"go/ast"
	"go/types"
)

// taint records why a value is order-dependent: derived from map iteration
// order, and/or derived from one of the enclosing function's parameters.
type taint struct {
	mapOrder bool
	params   map[*types.Var]bool
}

func (t *taint) clone() *taint {
	if t == nil {
		return nil
	}
	c := &taint{mapOrder: t.mapOrder}
	if len(t.params) > 0 {
		c.params = make(map[*types.Var]bool, len(t.params))
		for p := range t.params {
			c.params[p] = true
		}
	}
	return c
}

// mergeTaint unions two taints; nil means clean.
func mergeTaint(a, b *taint) *taint {
	if a == nil {
		return b.clone()
	}
	out := a.clone()
	if b != nil {
		out.mapOrder = out.mapOrder || b.mapOrder
		for p := range b.params {
			if out.params == nil {
				out.params = make(map[*types.Var]bool)
			}
			out.params[p] = true
		}
	}
	return out
}

// taintTracker walks one function body tracking map-order taint per
// variable and firing callbacks at sinks and returns.
type taintTracker struct {
	info  *types.Info
	flow  *FlowFacts
	state map[*types.Var]*taint

	// onSink fires when a tainted value reaches an emitting sink: an
	// output/encoder/writer call, a module emit method, a callee position
	// summarized as a sink, or a store into a results-style field. n is
	// the sink node, desc names the sink for diagnostics.
	onSink func(n ast.Node, t *taint, desc string)
	// onReturn fires at each return statement with the taint of every
	// result position (nil entries are clean results).
	onReturn func(ret *ast.ReturnStmt, ts []*taint)
}

func newTaintTracker(info *types.Info, flow *FlowFacts) *taintTracker {
	return &taintTracker{
		info:  info,
		flow:  flow,
		state: make(map[*types.Var]*taint),
	}
}

// sinkFields are struct-field names whose slots feed deterministic output
// downstream (sweep Results and Frames, trace Records/Shards);
// storing an order-tainted value into one is a sink.
var sinkFields = map[string]bool{
	"Results": true, "Frames": true, "Records": true, "Shards": true,
}

// emitMethods are module emitter methods whose call order reaches
// telemetry streams or trace output.
var emitMethods = map[string]bool{
	"Emit": true, "Frame": true, "Texel": true,
	"Encode": true, "WriteAll": true,
}

// sortClears reports whether the call is a sort-family statement
// (sort.Strings(s), slices.Sort(s), sort.Slice(s, less), ...) and returns
// the variable it orders.
func (tt *taintTracker) sortClears(call *ast.CallExpr) *types.Var {
	p := calleePkgPath(tt.info, call)
	if p != "sort" && p != "slices" {
		return nil
	}
	if len(call.Args) == 0 {
		return nil
	}
	return rootVar(tt.info, call.Args[0])
}

// isSortedExpr reports calls that return an already-ordered value
// (slices.Sorted, slices.SortedFunc, slices.SortedStableFunc).
func (tt *taintTracker) isSortedExpr(call *ast.CallExpr) bool {
	if calleePkgPath(tt.info, call) != "slices" {
		return false
	}
	obj := calleeObj(tt.info, call)
	if obj == nil {
		return false
	}
	switch obj.Name() {
	case "Sorted", "SortedFunc", "SortedStableFunc":
		return true
	}
	return false
}

// exprTaint computes the taint of an expression under the current state.
func (tt *taintTracker) exprTaint(e ast.Expr) *taint {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if v, ok := tt.info.Uses[e].(*types.Var); ok {
			return tt.state[v]
		}
		return nil
	case *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr, *ast.SliceExpr:
		if v := rootVar(tt.info, e.(ast.Expr)); v != nil {
			return tt.state[v]
		}
		return nil
	case *ast.UnaryExpr:
		return tt.exprTaint(e.X)
	case *ast.BinaryExpr:
		return mergeTaint(tt.exprTaint(e.X), tt.exprTaint(e.Y))
	case *ast.CompositeLit:
		var t *taint
		for _, el := range e.Elts {
			if kv, ok := el.(*ast.KeyValueExpr); ok {
				el = kv.Value
			}
			t = mergeTaint(t, tt.exprTaint(el))
		}
		return t
	case *ast.TypeAssertExpr:
		return tt.exprTaint(e.X)
	case *ast.CallExpr:
		return tt.callTaint(e)
	}
	return nil
}

// callTaint computes the taint of a call's result: sorted producers are
// clean, maps.Keys/Values and MapOrdered callees introduce map-order
// taint, everything else propagates its arguments (conversions, Sprintf,
// append, strings.Join, user helpers).
func (tt *taintTracker) callTaint(call *ast.CallExpr) *taint {
	if tt.isSortedExpr(call) {
		return nil
	}
	if isBuiltin(tt.info, call, "len") || isBuiltin(tt.info, call, "cap") {
		return nil
	}
	var t *taint
	for _, arg := range call.Args {
		t = mergeTaint(t, tt.exprTaint(arg))
	}
	if calleeIsPkgFunc(tt.info, call, "maps", "Keys") ||
		calleeIsPkgFunc(tt.info, call, "maps", "Values") {
		t = mergeTaint(t, &taint{mapOrder: true})
	}
	if tt.flow != nil {
		if fn, ok := calleeObj(tt.info, call).(*types.Func); ok && len(tt.flow.MapOrdered[fn]) > 0 {
			t = mergeTaint(t, &taint{mapOrder: true})
		}
	}
	return t
}

// callResultTaints computes the per-result taints of a call assigned into
// a tuple, so f()'s clean error result stays clean even when its first
// result carries map order.
func (tt *taintTracker) callResultTaints(call *ast.CallExpr, nres int) []*taint {
	out := make([]*taint, nres)
	var argT *taint
	for _, arg := range call.Args {
		argT = mergeTaint(argT, tt.exprTaint(arg))
	}
	var ordered map[int]bool
	if tt.flow != nil {
		if fn, ok := calleeObj(tt.info, call).(*types.Func); ok {
			ordered = tt.flow.MapOrdered[fn]
		}
	}
	for i := range out {
		out[i] = argT.clone()
		if ordered[i] {
			out[i] = mergeTaint(out[i], &taint{mapOrder: true})
		}
	}
	return out
}

// sinkCall reports whether the call is itself an emitting sink and
// returns a short description.
func (tt *taintTracker) sinkCall(call *ast.CallExpr) (string, bool) {
	if calleePkgPath(tt.info, call) == "fmt" {
		if obj := calleeObj(tt.info, call); obj != nil && outputFuncs[obj.Name()] {
			return "fmt." + obj.Name(), true
		}
		return "", false
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	if s := tt.info.Selections[sel]; s != nil && s.Kind() == types.MethodVal {
		name := sel.Sel.Name
		if outputMethods[name] || emitMethods[name] {
			return "method " + name, true
		}
	}
	return "", false
}

// checkCall fires onSink for tainted arguments reaching sink calls and
// summarized sink parameters of callees.
func (tt *taintTracker) checkCall(call *ast.CallExpr) {
	if tt.onSink == nil {
		return
	}
	desc, isSink := tt.sinkCall(call)
	var callee *types.Func
	if tt.flow != nil {
		callee, _ = calleeObj(tt.info, call).(*types.Func)
	}
	for ai, arg := range call.Args {
		t := tt.exprTaint(arg)
		if t == nil {
			continue
		}
		if isSink {
			tt.onSink(call, t, desc)
			return
		}
		if callee != nil && tt.flow.ParamSinks[callee] != nil && tt.flow.ParamSinks[callee][ai] {
			tt.onSink(call, t, "call to "+callee.Name()+" (emits parameter)")
			return
		}
	}
}

// sinkStoreField returns the sink-field name if the lvalue stores into a
// Results/Frames/Records/Shards field (directly or through an index).
func sinkStoreField(e ast.Expr) (string, bool) {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.IndexExpr:
			e = x.X
		case *ast.SelectorExpr:
			if sinkFields[x.Sel.Name] {
				return x.Sel.Name, true
			}
			e = x.X
		case *ast.StarExpr:
			e = x.X
		default:
			return "", false
		}
	}
}

// assign records taint for one lhs := rhs pair and checks store sinks.
func (tt *taintTracker) assign(lhs, rhs ast.Expr, t *taint) {
	if id, ok := ast.Unparen(lhs).(*ast.Ident); ok {
		if id.Name == "_" {
			return
		}
		if v, ok := tt.info.Defs[id].(*types.Var); ok {
			tt.state[v] = t
			return
		}
		if v, ok := tt.info.Uses[id].(*types.Var); ok {
			tt.state[v] = t
			return
		}
		return
	}
	if t == nil {
		return
	}
	if field, ok := sinkStoreField(lhs); ok && tt.onSink != nil {
		tt.onSink(lhs, t, "store into "+field+" slot")
		return
	}
	// Storing taint through a field/index keeps the container tainted.
	if v := rootVar(tt.info, lhs); v != nil {
		tt.state[v] = mergeTaint(tt.state[v], t)
	}
}

// walk processes the body in source order, including nested function
// literals (captured variables share the same state).
func (tt *taintTracker) walk(body ast.Node) {
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			var seed *taint
			if x := tt.info.TypeOf(n.X); x != nil {
				if _, isMap := x.Underlying().(*types.Map); isMap {
					seed = &taint{mapOrder: true}
				}
			}
			seed = mergeTaint(seed, tt.exprTaint(n.X))
			if n.Key != nil {
				tt.assign(n.Key, nil, nil)
				if seed != nil {
					tt.assign(n.Key, nil, seed.clone())
				}
			}
			if n.Value != nil {
				tt.assign(n.Value, nil, nil)
				if seed != nil {
					tt.assign(n.Value, nil, seed.clone())
				}
			}
		case *ast.AssignStmt:
			if len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					tt.assign(n.Lhs[i], n.Rhs[i], tt.exprTaint(n.Rhs[i]))
				}
			} else if len(n.Rhs) == 1 {
				if call, ok := ast.Unparen(n.Rhs[0]).(*ast.CallExpr); ok {
					ts := tt.callResultTaints(call, len(n.Lhs))
					for i, lhs := range n.Lhs {
						tt.assign(lhs, n.Rhs[0], ts[i])
					}
					return true
				}
				t := tt.exprTaint(n.Rhs[0])
				for _, lhs := range n.Lhs {
					tt.assign(lhs, n.Rhs[0], t.clone())
				}
			}
		case *ast.GenDecl:
			for _, spec := range n.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for i, name := range vs.Names {
					var t *taint
					if i < len(vs.Values) {
						t = tt.exprTaint(vs.Values[i])
					} else if len(vs.Values) == 1 {
						t = tt.exprTaint(vs.Values[0])
					}
					tt.assign(name, nil, t)
				}
			}
		case *ast.CallExpr:
			if v := tt.sortClears(n); v != nil {
				tt.checkCall(n)
				delete(tt.state, v)
				return true
			}
			tt.checkCall(n)
		case *ast.ReturnStmt:
			if tt.onReturn != nil && len(n.Results) > 0 {
				ts := make([]*taint, len(n.Results))
				any := false
				if len(n.Results) == 1 {
					if call, ok := ast.Unparen(n.Results[0]).(*ast.CallExpr); ok && call != nil {
						if tup, _ := tt.info.TypeOf(call).(*types.Tuple); tup != nil {
							// return f() forwarding a multi-result call.
							ts = tt.callResultTaints(call, tup.Len())
						} else {
							ts[0] = tt.exprTaint(n.Results[0])
						}
					} else {
						ts[0] = tt.exprTaint(n.Results[0])
					}
				} else {
					for i, res := range n.Results {
						ts[i] = tt.exprTaint(res)
					}
				}
				for _, t := range ts {
					if t != nil {
						any = true
					}
				}
				if any {
					tt.onReturn(n, ts)
				}
			}
		}
		return true
	})
}
