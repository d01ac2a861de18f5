// Package serving checks the lock and context contracts of the serving
// packages by scanning function bodies. It needs no control-flow
// graph, because the lock rule fixes the only shape a critical section
// may take.
//
// Lock rule (service, memo, memo/peer, loadgen, parallel): x.Lock() or
// x.RLock() is a top-level statement of a function body, and the next
// statement is defer x.Unlock() or defer x.RUnlock(). No other unlock
// is written. A lock is therefore held for the rest of one body and
// released on every path, panics included. The statements after the
// pair neither lock or unlock x again nor block: no channel operation
// outside a select with a default, no sleep or wait, no disk or
// network call. A section that must do one of those is its own short
// function, or carries a lint:ignore directive with the reason. Each
// bad section is reported once, at its Lock.
//
// Context rule (service, memo, memo/peer, loadgen; not package main):
// context.Background() and context.TODO() are banned. A mint in the
// middle of a request chain detaches everything below it from
// cancellation. Work that deliberately outlives its request documents
// the detachment with a lint:ignore directive.
//
// Test files are exempt from both rules: their goroutines and contexts
// follow the test harness. Copies of lock-bearing values are go vet's
// copylocks check.
package serving

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"additivity/internal/analysis"
)

// Analyzer is the serving pass.
var Analyzer = &analysis.Analyzer{
	Name: "serving",
	Doc:  "each Lock is followed by its deferred Unlock with nothing blocking after it; no context.Background() or TODO() in serving code",
	Run:  run,
}

// lockScope lists the packages under the lock rule; the context rule
// covers all but the last.
var lockScope = []string{
	"internal/service", "internal/memo", "internal/memo/peer",
	"internal/loadgen", "internal/parallel",
}

// blockingCalls lists the functions and methods ("pkg.Func" or
// "pkg.Type.Method") that sleep, wait, or do disk or network I/O.
var blockingCalls = map[string]bool{
	"time.Sleep":          true,
	"sync.WaitGroup.Wait": true,
	"sync.Cond.Wait":      true,
	"io.ReadAll":          true, "io.Copy": true, "io.CopyN": true, "io.CopyBuffer": true,
	"os.ReadFile": true, "os.WriteFile": true, "os.Open": true, "os.Create": true,
	"os.OpenFile": true, "os.Rename": true, "os.Remove": true, "os.RemoveAll": true,
	"os.ReadDir": true, "os.MkdirAll": true, "os.Mkdir": true,
	"os.File.Read": true, "os.File.Write": true, "os.File.Sync": true, "os.File.ReadDir": true,
	"bufio.Reader.ReadByte": true, "bufio.Scanner.Scan": true,
	"net.Dial": true, "net.DialTimeout": true, "net.Listen": true,
	"net.Conn.Read": true, "net.Conn.Write": true,
	"net/http.Get": true, "net/http.Post": true, "net/http.Head": true, "net/http.PostForm": true,
	"net/http.Client.Do": true, "net/http.Client.Get": true,
	"net/http.Client.Post": true, "net/http.Client.Head": true,
}

func run(pass *analysis.Pass) {
	path := pass.Pkg.Path()
	locks := analysis.InScope(path, lockScope...)
	mints := pass.Pkg.Name() != "main" && analysis.InScope(path, lockScope[:4]...)
	if !locks && !mints {
		return
	}
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if locks && n.Body != nil {
					checkBody(pass, n.Body)
				}
			case *ast.FuncLit:
				if locks {
					checkBody(pass, n.Body)
				}
			case *ast.CallExpr:
				if name := callee(pass, n); mints && (name == "context.Background" || name == "context.TODO") {
					pass.Reportf(n.Pos(), "serving: %s() detaches this work from request cancellation; thread the caller's ctx, or document the detachment with a lint:ignore directive", name)
				}
			}
			return true
		})
	}
}

// checkBody applies the lock rule to one function body. Nested function
// literals are bodies of their own and are skipped here.
func checkBody(pass *analysis.Pass, body *ast.BlockStmt) {
	// paired maps each top-level Lock that the next statement's defer
	// releases to its index; partner holds those deferred unlocks.
	paired := map[*ast.CallExpr]int{}
	partner := map[*ast.CallExpr]bool{}
	for i := 0; i+1 < len(body.List); i++ {
		lock, op, x := lockCall(pass, stmtCall(body.List[i]))
		d, ok := body.List[i+1].(*ast.DeferStmt)
		if !ok || (op != "Lock" && op != "RLock") {
			continue
		}
		if _, uop, y := lockCall(pass, d.Call); y == x && uop == unlockOf(op) {
			paired[lock] = i
			partner[d.Call] = true
		}
	}

	flagged := map[string]bool{}
	var strays []*ast.CallExpr
	ast.Inspect(body, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false // a body of its own
		}
		call, op, x := lockCall(pass, n)
		switch op {
		case "Lock", "RLock":
			i, ok := paired[call]
			if !ok {
				flagged[x] = true
				pass.Reportf(call.Pos(), "serving: %s.%s() must be a top-level statement of its function, followed by defer %s.%s()", x, op, x, unlockOf(op))
			} else if what, pos := blocks(pass, x, body.List[i+2:]); what != "" {
				flagged[x] = true
				pass.Reportf(call.Pos(), "serving: %s.%s() holds %s across %s at line %d; end the critical section first", x, op, x, what, pass.Fset.Position(pos).Line)
			}
		case "Unlock", "RUnlock":
			if !partner[call] {
				strays = append(strays, call)
			}
		}
		return true
	})
	// A stray unlock of a receiver whose Lock was reported is part of
	// that finding.
	for _, call := range strays {
		if _, op, x := lockCall(pass, call); !flagged[x] {
			pass.Reportf(call.Pos(), "serving: %s.%s() outside a Lock/defer pair; lock, then defer the unlock in the same function", x, op)
		}
	}
}

// blocks returns what in stmts locks or unlocks x again or blocks,
// and where; "" when nothing does.
func blocks(pass *analysis.Pass, x string, stmts []ast.Stmt) (string, token.Pos) {
	var what string
	var pos token.Pos
	var visit func(ast.Node) bool
	visit = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false // defining a closure runs nothing
		case *ast.SelectStmt:
			if !hasDefault(n) {
				return true
			}
			// A select with a default never blocks: skip its
			// communications, scan the clause bodies.
			for _, c := range n.Body.List {
				for _, s := range c.(*ast.CommClause).Body {
					ast.Inspect(s, visit)
				}
			}
			return false
		case *ast.SendStmt:
			what, pos = "a channel send", n.Arrow
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				what, pos = "a channel receive", n.OpPos
			}
		case *ast.RangeStmt:
			if t := pass.Info.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					what, pos = "a range over a channel", n.For
				}
			}
		case *ast.CallExpr:
			if _, op, y := lockCall(pass, n); y == x {
				what, pos = "another "+x+"."+op+"()", n.Pos()
			} else if name := callee(pass, n); blockingCalls[name] {
				what, pos = name, n.Pos()
			}
		}
		return what == ""
	}
	for _, s := range stmts {
		if what == "" {
			ast.Inspect(s, visit)
		}
	}
	return what, pos
}

// unlockOf names the unlock that pairs with a Lock or RLock.
func unlockOf(op string) string { return strings.TrimSuffix(op, "Lock") + "Unlock" }

func hasDefault(s *ast.SelectStmt) bool {
	for _, c := range s.Body.List {
		if c.(*ast.CommClause).Comm == nil {
			return true
		}
	}
	return false
}

// stmtCall returns the call an expression statement makes, or nil.
func stmtCall(s ast.Stmt) ast.Node {
	if es, ok := s.(*ast.ExprStmt); ok {
		return ast.Unparen(es.X)
	}
	return nil
}

// lockCall classifies n as a Lock, RLock, Unlock or RUnlock call on a
// sync mutex, returning the call, the method and the printed receiver.
// op is "" for anything else.
func lockCall(pass *analysis.Pass, n ast.Node) (call *ast.CallExpr, op, x string) {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return nil, "", ""
	}
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	fn := analysis.CalleeFunc(pass.Info, call)
	if !ok || fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return nil, "", ""
	}
	switch fn.Name() {
	case "Lock", "RLock", "Unlock", "RUnlock":
		return call, fn.Name(), types.ExprString(sel.X)
	}
	return nil, "", ""
}

// callee names the function or method a call invokes as "pkg.Func" or
// "pkg.Type.Method", or "" for builtins and calls through values.
func callee(pass *analysis.Pass, call *ast.CallExpr) string {
	fn := analysis.CalleeFunc(pass.Info, call)
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return fn.Pkg().Path() + "." + fn.Name()
	}
	if named, ok := analysis.Deref(recv.Type()).(*types.Named); ok {
		return fn.Pkg().Path() + "." + named.Obj().Name() + "." + fn.Name()
	}
	return ""
}
