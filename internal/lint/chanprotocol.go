package lint

// chanprotocol enforces channel ownership and ordering contracts:
//
//   - close-of-closed: a close reachable from an earlier close of the same
//     channel panics at runtime;
//   - send-after-close: a send reachable from a close of the same channel
//     panics at runtime;
//   - close by non-owner: closing a channel received as a parameter is
//     only legitimate when ownership was transferred, asserted with a
//     //texsim:closes annotation on the closing function;
//   - publication contract: a function annotated
//     //texsim:publishes <payload> <announce> promises the
//     store-then-close publication idiom — every close of an <announce> channel must
//     be preceded, within its own basic block, by a store into <payload>,
//     so a reader woken by the close always observes the published data.
//
// Channel identity is syntactic: a key built from the root variable and
// the access path (ready, rt.ready, ready[3]). A variable index (ready[f])
// yields a unique key per occurrence, so closing ready[f] across loop
// iterations is never mistaken for a double close — at the cost of missing
// a genuine double close through the same variable index. Ordering is
// judged per function body on the texvet CFG; cross-goroutine orderings
// are out of scope, as are operations inside select statements.

import (
	"fmt"
	"go/ast"
	"go/types"
)

// Chanprotocol reports close/send ordering violations and unannotated
// closes of foreign channels.
var Chanprotocol = &Analyzer{
	Name: "chanprotocol",
	Doc:  "channel close/send protocol violations (double close, send after close, non-owner close, broken publish contract)",
	Run:  runChanprotocol,
}

// chanEvent is one close or send site in a scope.
type chanEvent struct {
	node ast.Node // the statement carrying the op
	op   ast.Node // the close call or send statement itself
	key  string
	name string // printable channel expression
}

// chanKeyOf renders a stable identity for a channel expression, or
// ok=false when the path contains a variable index or an unsupported
// form (such a channel gets a unique per-site key).
func chanKeyOf(info *types.Info, e ast.Expr) (key, name string, ok bool) {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := info.ObjectOf(x)
		if obj == nil {
			return "", x.Name, false
		}
		return fmt.Sprintf("v%p", obj), x.Name, true
	case *ast.SelectorExpr:
		base, bname, ok := chanKeyOf(info, x.X)
		return base + "." + x.Sel.Name, bname + "." + x.Sel.Name, ok
	case *ast.IndexExpr:
		base, bname, ok := chanKeyOf(info, x.X)
		if tv, found := info.Types[x.Index]; found && tv.Value != nil {
			return base + "[" + tv.Value.String() + "]", bname + "[" + tv.Value.String() + "]", ok
		}
		return base + "[?]", bname + "[…]", false
	}
	return "", "channel", false
}

// exprMentions reports whether the expression's path contains an
// identifier or field named name.
func exprMentions(e ast.Expr, name string) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.Ident:
			if n.Name == name {
				found = true
			}
		case *ast.SelectorExpr:
			if n.Sel.Name == name {
				found = true
			}
		}
		return !found
	})
	return found
}

func runChanprotocol(pass *Pass) {
	for _, file := range pass.Pkg.Files {
		for _, sc := range scopesOf(file) {
			chanprotocolScope(pass, sc)
		}
	}
}

// collectChanEvents gathers close and send sites in the scope, outside
// selects and nested literals. Summarized module calls that close a plain
// channel argument count as closes of that argument.
func collectChanEvents(pass *Pass, sc funcScope) (closes, sends []chanEvent) {
	info := pass.Pkg.Info
	flow := pass.Facts.Flow
	uniq := 0
	keyFor := func(e ast.Expr) (string, string) {
		key, name, ok := chanKeyOf(info, e)
		if !ok {
			uniq++
			return fmt.Sprintf("!uniq%d", uniq), name
		}
		return key, name
	}
	var stmtStack []ast.Node
	var walk func(n ast.Node)
	walk = func(n ast.Node) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.FuncLit:
				return m == n
			case *ast.SelectStmt:
				return false
			case ast.Stmt:
				stmtStack = append(stmtStack, m)
			}
			if call, ok := m.(*ast.CallExpr); ok {
				top := m.(ast.Node)
				if len(stmtStack) > 0 {
					top = stmtStack[len(stmtStack)-1]
				}
				if isBuiltin(info, call, "close") && len(call.Args) == 1 {
					key, name := keyFor(call.Args[0])
					closes = append(closes, chanEvent{node: top, op: call, key: key, name: name})
				} else if flow != nil {
					for _, arg := range call.Args {
						id, ok := ast.Unparen(arg).(*ast.Ident)
						if !ok {
							continue
						}
						v, ok := info.Uses[id].(*types.Var)
						if !ok || !isChanType(v.Type()) {
							continue
						}
						ops := flow.ChanArgOps(info, call, v)
						key, name := keyFor(arg)
						if ops.Closes {
							closes = append(closes, chanEvent{node: top, op: call, key: key, name: name})
						}
						if ops.Sends {
							sends = append(sends, chanEvent{node: top, op: call, key: key, name: name})
						}
					}
				}
			}
			if send, ok := m.(*ast.SendStmt); ok {
				key, name := keyFor(send.Chan)
				sends = append(sends, chanEvent{node: send, op: send, key: key, name: name})
			}
			return true
		})
	}
	walk(sc.body)
	return closes, sends
}

// reaches reports whether the statement holding b is reachable from the
// statement holding a in the scope CFG (a strictly before b on some path).
func reaches(g *CFG, a, b chanEvent) bool {
	if a.op == b.op {
		return false
	}
	for _, n := range ReachableFrom(g, a.node, nil) {
		if n == b.node || contains(n, b.op) {
			return true
		}
	}
	return false
}

func chanprotocolScope(pass *Pass, sc funcScope) {
	info := pass.Pkg.Info
	flow := pass.Facts.Flow
	closes, sends := collectChanEvents(pass, sc)

	// Non-owner close: closing a channel parameter without texsim:closes.
	if sc.decl != nil && len(closes) > 0 {
		var declObj *types.Func
		if o, ok := info.Defs[sc.decl.Name].(*types.Func); ok {
			declObj = o
		}
		params := paramVars(info, sc.decl)
		sanctioned := declObj != nil && flow != nil &&
			(flow.Closers[declObj] || len(flow.Publishes[declObj]) > 0)
		if !sanctioned {
			for _, c := range closes {
				call, ok := c.op.(*ast.CallExpr)
				if !ok || !isBuiltin(info, call, "close") {
					continue
				}
				id, ok := ast.Unparen(call.Args[0]).(*ast.Ident)
				if !ok {
					continue
				}
				if v, ok := info.Uses[id].(*types.Var); ok {
					if _, isParam := params[v]; isParam {
						pass.Reportf(c.op.Pos(), "close of channel parameter %s by non-owner; annotate the function //texsim:closes if ownership is transferred", c.name)
					}
				}
			}
		}
	}

	var cfg *CFG
	graph := func() *CFG {
		if cfg == nil {
			cfg = BuildCFG(sc.body)
		}
		return cfg
	}

	// Double close and send-after-close, per identical channel key.
	for _, c := range closes {
		for _, c2 := range closes {
			if c.key == c2.key && c.op != c2.op && reaches(graph(), c, c2) {
				pass.Reportf(c2.op.Pos(), "%s may already be closed here (close of closed channel panics)", c2.name)
			}
		}
		for _, s := range sends {
			if c.key == s.key && reaches(graph(), c, s) {
				pass.Reportf(s.op.Pos(), "send on %s may happen after it is closed (send on closed channel panics)", s.name)
			}
		}
	}

	// Publication contract: store into payload must precede each close of
	// an announce channel within the close's basic block.
	if sc.decl == nil || flow == nil {
		return
	}
	declObj, ok := info.Defs[sc.decl.Name].(*types.Func)
	if !ok {
		return
	}
	fields, annotated := flow.Publishes[declObj]
	if !annotated {
		return
	}
	if len(fields) != 2 {
		pass.Reportf(sc.decl.Pos(), "malformed //texsim:publishes annotation: want \"//texsim:publishes <payload> <announce>\", got %d fields", len(fields))
		return
	}
	payload, announce := fields[0], fields[1]
	for _, c := range closes {
		call, ok := c.op.(*ast.CallExpr)
		if !ok || !isBuiltin(info, call, "close") || !exprMentions(call.Args[0], announce) {
			continue
		}
		blk := graph().BlockOf(c.node)
		if blk == nil {
			continue
		}
		stored := false
		for _, n := range blk.Nodes {
			if n == c.node || contains(n, c.op) {
				break
			}
			if assign, ok := n.(*ast.AssignStmt); ok {
				for _, lhs := range assign.Lhs {
					if exprMentions(lhs, payload) {
						stored = true
					}
				}
			}
		}
		if !stored {
			pass.Reportf(c.op.Pos(), "close of %s is not preceded by a store into %s in the same block (texsim:publishes contract: publish the payload before announcing)", c.name, payload)
		}
	}
}
