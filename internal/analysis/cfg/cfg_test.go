package cfg

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// fixtures is a gallery of function bodies exercising every structured
// control-flow form the builder lowers, with the edge cases the
// concurrency passes depend on: defers before panics, labeled break
// and continue crossing loop nesting, fallthrough, goto, select with
// and without default, and dead code after terminal statements.
var fixtures = []string{
	`func straight() { a(); b(); c() }`,

	`func ifElse(x bool) int {
		if x { return 1 }
		return 2
	}`,

	`func ifChain(x int) {
		if x > 0 {
			a()
		} else if x < 0 {
			b()
		} else {
			c()
		}
		d()
	}`,

	`func loops(n int) {
		for i := 0; i < n; i++ { a(i) }
		for { if done() { break } }
		for x := range ch { use(x) }
	}`,

	`func labeledBreak(m [][]int) int {
	outer:
		for _, row := range m {
			for _, v := range row {
				if v < 0 { break outer }
				if v == 0 { continue outer }
				use(v)
			}
		}
		return 0
	}`,

	`func deferPanic(mu locker) {
		mu.Lock()
		defer mu.Unlock()
		if bad() {
			panic("boom")
		}
		work()
	}`,

	`func conditionalDefer(mu locker, c bool) {
		if c {
			mu.Lock()
			defer mu.Unlock()
		}
		work()
	}`,

	`func switches(x int) string {
		switch x {
		case 1:
			return "one"
		case 2:
			a()
			fallthrough
		case 3:
			return "few"
		default:
			b()
		}
		return "many"
	}`,

	`func typeSwitch(v any) {
		switch v := v.(type) {
		case int:
			use(v)
		case string:
			use(v)
		}
	}`,

	`func selects(done chan struct{}, tick chan int) {
		for {
			select {
			case <-done:
				return
			case v := <-tick:
				use(v)
			}
		}
	}`,

	`func selectDefault(ch chan int) bool {
		select {
		case v := <-ch:
			use(v)
			return true
		default:
			return false
		}
	}`,

	`func gotos(n int) {
	loop:
		if n > 0 {
			n--
			goto loop
		}
		use(n)
	}`,

	`func deadCode() int {
		return 1
		use(2)
		return 3
	}`,

	`func deadAfterPanic() {
		panic("x")
		use(1)
	}`,

	`func deadAfterExit() {
		os.Exit(1)
		use(1)
	}`,

	`func nestedLit() {
		f := func() { return }
		f()
	}`,

	`func emptySelect() {
		select {}
		use(1)
	}`,
}

func parseFunc(t *testing.T, src string) (*token.FileSet, *ast.FuncDecl) {
	t.Helper()
	file := "package p\n" + src
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "fix.go", file, 0)
	if err != nil {
		t.Fatalf("parse %q: %v", src, err)
	}
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok {
			return fset, fd
		}
	}
	t.Fatalf("no func in %q", src)
	return nil, nil
}

// TestEveryStatementAccounted is the builder's core property: every
// statement of a function body lands in exactly one block, and is
// either in a block reachable from entry or reported by Unreachable.
// A statement the builder silently dropped would be a soundness hole —
// a lock or counter increment the dataflow passes never see.
func TestEveryStatementAccounted(t *testing.T) {
	for _, src := range fixtures {
		fset, fd := parseFunc(t, src)
		g := New(fd.Body)

		// All statements in the body, excluding nested function
		// literals (separate graphs) and structural containers whose
		// children carry the semantics.
		want := map[ast.Stmt]bool{}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			if _, ok := n.(*ast.FuncLit); ok {
				return false
			}
			switch s := n.(type) {
			case *ast.BlockStmt, *ast.IfStmt, *ast.ForStmt, *ast.RangeStmt,
				*ast.SwitchStmt, *ast.TypeSwitchStmt, *ast.SelectStmt,
				*ast.CaseClause, *ast.CommClause, *ast.LabeledStmt:
				// Structural: lowered into guard blocks and edges.
				return true
			case ast.Stmt:
				want[s] = true
			}
			return true
		})

		placed := map[ast.Stmt]int{}
		for _, b := range g.Blocks {
			for _, n := range b.Nodes {
				if s, ok := n.(ast.Stmt); ok {
					placed[s]++
				}
			}
		}
		live := g.Reachable()
		dead := map[ast.Node]bool{}
		for _, n := range g.Unreachable() {
			dead[n] = true
		}
		reachableStmts := map[ast.Stmt]bool{}
		for b := range live {
			for _, n := range b.Nodes {
				if s, ok := n.(ast.Stmt); ok {
					reachableStmts[s] = true
				}
			}
		}

		for s := range want {
			pos := fset.Position(s.Pos())
			if placed[s] == 0 {
				t.Errorf("%s: statement at %v not placed in any block", fd.Name.Name, pos)
				continue
			}
			if placed[s] > 1 {
				t.Errorf("%s: statement at %v placed in %d blocks", fd.Name.Name, pos, placed[s])
			}
			if !reachableStmts[s] && !dead[s] {
				t.Errorf("%s: statement at %v neither reachable nor flagged dead", fd.Name.Name, pos)
			}
		}
	}
}

// TestDeadCode checks that statements after terminal statements are
// flagged dead, and only those.
func TestDeadCode(t *testing.T) {
	cases := []struct {
		src      string
		wantDead int
	}{
		{`func f() int { return 1; use(2); return 3 }`, 2},
		{`func f() { panic("x"); use(1) }`, 1},
		{`func f() { os.Exit(1); use(1) }`, 1},
		{`func f() { for { a() }; use(1) }`, 0}, // use(1) unreachable dynamically but CFG keeps the loop-exit edge only for conditional loops
		{`func f() { a(); b() }`, 0},
		{`func f(x bool) { if x { return }; a() }`, 0},
	}
	for _, c := range cases {
		_, fd := parseFunc(t, c.src)
		g := New(fd.Body)
		dead := g.Unreachable()
		// for{} has no exit edge, so trailing statements genuinely are
		// unreachable; adjust the expectation for that row.
		if strings.Contains(c.src, "for {") {
			if len(dead) == 0 {
				t.Errorf("%s: trailing statement after for{} should be dead", c.src)
			}
			continue
		}
		if len(dead) != c.wantDead {
			t.Errorf("%s: got %d dead statements, want %d", c.src, len(dead), c.wantDead)
		}
	}
}

// TestEdges spot-checks the shapes the concurrency passes rely on.
func TestEdges(t *testing.T) {
	t.Run("return reaches exit", func(t *testing.T) {
		_, fd := parseFunc(t, `func f(x bool) int { if x { return 1 }; return 2 }`)
		g := New(fd.Body)
		if len(g.Exit.Preds) != 2 {
			t.Fatalf("exit preds = %d, want 2", len(g.Exit.Preds))
		}
	})

	t.Run("panic reaches exit", func(t *testing.T) {
		_, fd := parseFunc(t, `func f() { panic("x") }`)
		g := New(fd.Body)
		found := false
		for _, p := range g.Exit.Preds {
			for _, n := range p.Nodes {
				if es, ok := n.(*ast.ExprStmt); ok {
					if call, ok := es.X.(*ast.CallExpr); ok {
						if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "panic" {
							found = true
						}
					}
				}
			}
		}
		if !found {
			t.Fatal("panic block is not a predecessor of exit")
		}
	})

	t.Run("conditionless for has no exit edge", func(t *testing.T) {
		_, fd := parseFunc(t, `func f() { for { a() } }`)
		g := New(fd.Body)
		for _, b := range g.Blocks {
			if b.Kind == KindForCond {
				for _, s := range b.Succs {
					if s == g.Exit {
						t.Fatal("for{} header must not edge to exit")
					}
				}
				if len(b.Succs) != 1 {
					t.Fatalf("for{} header succs = %d, want 1 (body)", len(b.Succs))
				}
			}
		}
	})

	t.Run("labeled break exits both loops", func(t *testing.T) {
		_, fd := parseFunc(t, `
		func f(m [][]int) {
		outer:
			for _, r := range m {
				for _, v := range r {
					if v < 0 { break outer }
				}
			}
			after()
		}`)
		g := New(fd.Body)
		// The break-block's successor must be the block holding after(),
		// not the inner loop's after-block.
		var breakBlock, afterBlock *Block
		for _, b := range g.Blocks {
			for _, n := range b.Nodes {
				if br, ok := n.(*ast.BranchStmt); ok && br.Tok == token.BREAK {
					breakBlock = b
				}
				if es, ok := n.(*ast.ExprStmt); ok {
					if call, ok := es.X.(*ast.CallExpr); ok {
						if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "after" {
							afterBlock = b
						}
					}
				}
			}
		}
		if breakBlock == nil || afterBlock == nil {
			t.Fatal("fixture blocks not found")
		}
		// after() must be reachable from the break block without
		// passing any range header again.
		reached := false
		seen := map[*Block]bool{}
		var walk func(*Block)
		walk = func(b *Block) {
			if seen[b] || reached {
				return
			}
			seen[b] = true
			if b == afterBlock {
				reached = true
				return
			}
			if b != breakBlock && b.Kind == KindRangeHead {
				return
			}
			for _, s := range b.Succs {
				walk(s)
			}
		}
		walk(breakBlock)
		if !reached {
			t.Fatal("break outer does not reach the statement after the outer loop")
		}
	})

	t.Run("select loop backedge goes through dispatch", func(t *testing.T) {
		_, fd := parseFunc(t, `
		func f(done chan struct{}, tick chan int) {
			for {
				select {
				case <-done:
					return
				case <-tick:
					work()
				}
			}
		}`)
		g := New(fd.Body)
		var dispatch *Block
		for _, b := range g.Blocks {
			if b.Kind == KindSelect {
				dispatch = b
			}
		}
		if dispatch == nil || len(dispatch.Succs) != 2 {
			t.Fatalf("select dispatch = %+v, want a KindSelect block with two cases", dispatch)
		}
		// reaches reports whether to is reachable from from along a
		// path that does not pass back through the dispatch.
		reaches := func(from, to *Block) bool {
			seen := map[*Block]bool{}
			var walk func(*Block) bool
			walk = func(b *Block) bool {
				if b == to {
					return true
				}
				if seen[b] || b == dispatch {
					return false
				}
				seen[b] = true
				for _, s := range b.Succs {
					if walk(s) {
						return true
					}
				}
				return false
			}
			return walk(from)
		}
		for _, c := range dispatch.Succs {
			if c.Kind != KindSelectCase {
				t.Fatalf("dispatch successor kind = %d, want KindSelectCase", c.Kind)
			}
			switch comm := types.ExprString(c.Ctrl.(*ast.CommClause).Comm.(*ast.ExprStmt).X); comm {
			case "<-done":
				if !reaches(c, g.Exit) || reaches(c, dispatch) {
					t.Error("<-done case must reach Exit without looping back to the dispatch")
				}
			case "<-tick":
				if !reaches(c, dispatch) {
					t.Error("<-tick case does not loop back to the dispatch")
				}
			default:
				t.Fatalf("unexpected select case %s", comm)
			}
		}
	})
}

// TestForwardFixpoint runs a trivial reaching-count analysis over a
// loop to confirm the engine saturates instead of oscillating.
func TestForwardFixpoint(t *testing.T) {
	_, fd := parseFunc(t, `
	func f(n int) {
		x := 0
		for i := 0; i < n; i++ {
			x++
		}
		use(x)
	}`)
	g := New(fd.Body)
	type fact struct{ visits int } // saturating at 3
	spec := FlowSpec[*fact]{
		Entry:  &fact{},
		Bottom: func() *fact { return &fact{visits: -1} },
		Clone:  func(f *fact) *fact { c := *f; return &c },
		Merge: func(dst, src *fact) bool {
			if src.visits > dst.visits {
				dst.visits = src.visits
				return true
			}
			return false
		},
		Transfer: func(b *Block, in *fact) *fact {
			if in.visits >= 0 && in.visits < 3 {
				in.visits++
			}
			return in
		},
	}
	in := Forward(g, spec)
	got := in[g.Exit]
	if got == nil || got.visits != 3 {
		t.Fatalf("exit fact = %+v, want saturated visits=3", got)
	}
}

// TestBuilderNoPanics feeds the builder a brace of degenerate shapes.
func TestBuilderNoPanics(t *testing.T) {
	shapes := []string{
		`func f() {}`,
		`func f() { ; }`,
		`func f() { switch {} }`,
		`func f() { switch x := 1; x { } }`,
		`func f() { for range ch {} }`,
		`func f() { goto missing }`,
		`func f() { l: goto l }`,
	}
	for _, s := range shapes {
		_, fd := parseFunc(t, s)
		g := New(fd.Body)
		if g.Entry == nil || g.Exit == nil {
			t.Errorf("%s: nil entry/exit", s)
		}
		_ = fmt.Sprintf("%v", len(g.Blocks))
	}
}
