package lint

// chanleak finds goroutines that can block forever because every peer that
// would unblock them may be gone: a worker spawned to send its result on an
// unbuffered channel leaks when an error path returns from the spawning
// function before the receive. This is the bug class that silently strands
// sweep workers — the miss counters still add up, the process just
// accretes parked goroutines.
//
// The check is deliberately narrow to stay quiet: it considers only
// channels created locally with make(chan T) (unbuffered), whose variable
// never escapes the function (not returned, not stored into a structure,
// not passed to a non-module function). For each go statement that sends
// or receives on such a channel — directly in a function literal, or via a
// module function whose texflow summary says so — it walks the spawner's
// CFG from the go statement and reports when an exit is reachable with no
// releasing operation (a receive for a blocked sender; a send or close for
// a blocked receiver) on the path. Deferred releases cover every exit, and
// a second goroutine performing the complementary operation disables the
// check, since goroutine-to-goroutine lifetimes are out of scope.
//
// Known limits: operations inside select statements are ignored (a select
// is not a guaranteed block or release), and a releasing operation that
// itself sits behind a condition on an unrelated error is trusted.

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Chanleak reports goroutines that may block forever on a channel no live
// peer will touch.
var Chanleak = &Analyzer{
	Name: "chanleak",
	Doc:  "goroutine may block forever on a channel abandoned by its spawner",
	Run:  runChanleak,
}

func runChanleak(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		for _, sc := range scopesOf(file) {
			chanleakScope(pass, sc)
		}
	}
}

// localUnbufferedChans finds channels created in this scope via
// ch := make(chan T) with no buffer (or a constant-zero buffer).
func localUnbufferedChans(pass *Pass, sc funcScope) []*types.Var {
	info := pass.Pkg.Info
	var out []*types.Var
	record := func(lhs ast.Expr, rhs ast.Expr) {
		call, ok := ast.Unparen(rhs).(*ast.CallExpr)
		if !ok || !isBuiltin(info, call, "make") || len(call.Args) == 0 {
			return
		}
		if len(call.Args) >= 2 {
			tv, ok := info.Types[call.Args[1]]
			if !ok || tv.Value == nil || tv.Value.String() != "0" {
				return
			}
		}
		id, ok := ast.Unparen(lhs).(*ast.Ident)
		if !ok {
			return
		}
		v, ok := info.Defs[id].(*types.Var)
		if ok && isChanType(v.Type()) {
			out = append(out, v)
		}
	}
	inspectScope(sc.body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			if n.Tok == token.DEFINE && len(n.Lhs) == len(n.Rhs) {
				for i := range n.Lhs {
					record(n.Lhs[i], n.Rhs[i])
				}
			}
		case *ast.ValueSpec:
			if len(n.Names) == len(n.Values) {
				for i := range n.Names {
					record(n.Names[i], n.Values[i])
				}
			}
		}
		return true
	})
	return out
}

// chanEscapes reports whether v is used anywhere in the scope (nested
// literals included) outside the vocabulary the analyzer understands:
// send/receive/range/close, nil comparison, len/cap, and arguments to
// module functions with texflow summaries. Returns, stores and calls into
// foreign code all count as escapes and silence the check.
func chanEscapes(pass *Pass, sc funcScope, v *types.Var) bool {
	info := pass.Pkg.Info
	safe := make(map[ast.Node]bool)
	mark := func(e ast.Expr) {
		if id, ok := ast.Unparen(e).(*ast.Ident); ok && info.Uses[id] == v {
			safe[id] = true
		}
	}
	escaped := false
	ast.Inspect(sc.body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SendStmt:
			mark(n.Chan)
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				mark(n.X)
			}
		case *ast.RangeStmt:
			mark(n.X)
		case *ast.BinaryExpr:
			if n.Op == token.EQL || n.Op == token.NEQ {
				mark(n.X)
				mark(n.Y)
			}
		case *ast.CallExpr:
			if isBuiltin(info, n, "close") || isBuiltin(info, n, "len") || isBuiltin(info, n, "cap") {
				for _, a := range n.Args {
					mark(a)
				}
				return true
			}
			if isModuleFunc(pass.Facts, calleeObj(info, n)) {
				for _, a := range n.Args {
					mark(a)
				}
			}
		}
		return true
	})
	ast.Inspect(sc.body, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if ok && info.Uses[id] == v && !safe[id] {
			escaped = true
		}
		return !escaped
	})
	return escaped
}

// goChanOps returns what the goroutine started by g may do to v: the ops
// of a direct function-literal body, or the summarized ops of a module
// function call like go worker(ch).
func goChanOps(pass *Pass, flow *FlowFacts, g *ast.GoStmt, v *types.Var) ChanOps {
	info := pass.Pkg.Info
	if lit, ok := ast.Unparen(g.Call.Fun).(*ast.FuncLit); ok {
		return chanOpsIn(info, flow, lit.Body, v)
	}
	if flow != nil {
		return flow.ChanArgOps(info, g.Call, v)
	}
	return ChanOps{}
}

func chanleakScope(pass *Pass, sc funcScope) {
	info := pass.Pkg.Info
	flow := pass.Facts.Flow
	chans := localUnbufferedChans(pass, sc)
	if len(chans) == 0 {
		return
	}

	// Goroutines spawned in this scope (not in nested literals — those are
	// their own scopes).
	var gos []*ast.GoStmt
	inspectScope(sc.body, func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			gos = append(gos, g)
		}
		return true
	})
	if len(gos) == 0 {
		return
	}

	var cfg *CFG // built lazily, shared across channels
	for _, v := range chans {
		if chanEscapes(pass, sc, v) {
			continue
		}
		// Deferred releases in the spawner cover every exit path.
		var deferred ChanOps
		inspectScope(sc.body, func(n ast.Node) bool {
			if d, ok := n.(*ast.DeferStmt); ok {
				ops := chanOpsIn(info, flow, d, v)
				if lit, ok := ast.Unparen(d.Call.Fun).(*ast.FuncLit); ok {
					inner := chanOpsIn(info, flow, lit.Body, v)
					ops.Sends = ops.Sends || inner.Sends
					ops.Recvs = ops.Recvs || inner.Recvs
					ops.Closes = ops.Closes || inner.Closes
				}
				deferred.Sends = deferred.Sends || ops.Sends
				deferred.Recvs = deferred.Recvs || ops.Recvs
				deferred.Closes = deferred.Closes || ops.Closes
			}
			return true
		})

		for i, g := range gos {
			ops := goChanOps(pass, flow, g, v)
			if !ops.Sends && !ops.Recvs {
				continue
			}
			// A complementary op in another goroutine couples the two
			// lifetimes; out of scope.
			peer := false
			for j, other := range gos {
				if i == j {
					continue
				}
				oops := goChanOps(pass, flow, other, v)
				if (ops.Sends && oops.Recvs) || (ops.Recvs && (oops.Sends || oops.Closes)) {
					peer = true
				}
			}
			if peer {
				continue
			}
			releases := func(n ast.Node) bool {
				switch n.(type) {
				case *ast.GoStmt, *ast.DeferStmt:
					// Other goroutines were handled above; defers were
					// checked for full coverage already.
					return false
				}
				rel := chanOpsIn(info, flow, n, v)
				if ops.Sends && rel.Recvs {
					return true
				}
				if ops.Recvs && (rel.Sends || rel.Closes) {
					return true
				}
				return false
			}
			if ops.Sends && deferred.Recvs {
				continue
			}
			if ops.Recvs && (deferred.Sends || deferred.Closes) {
				continue
			}
			if cfg == nil {
				cfg = BuildCFG(sc.body)
			}
			if canExitWithout(cfg, g, releases) {
				verb := "sending on"
				release := "receiving from"
				if !ops.Sends {
					verb = "receiving from"
					release = "sending on or closing"
				}
				pass.Reportf(g.Pos(), "goroutine may block forever %s %s: the function can return without %s it (goroutine leak)",
					verb, v.Name(), release)
			}
		}
	}
}
