// Package cfg builds intraprocedural control-flow graphs over go/ast
// function bodies and solves forward dataflow problems over them. It is
// the foundation of the flow-sensitive concurrency passes (locksafe,
// goroleak, ctxflow): where the reproducibility passes inspect
// individual AST nodes, these need to reason about *paths* — "is the
// shard mutex still held when this channel receive executes?", "does
// every backedge of this heartbeat loop observe its stop signal?" —
// and paths are a CFG property.
//
// The graph is deliberately simple: a Block is a maximal straight-line
// sequence of statements (plus the controlling expression of the branch
// that ends it), and edges follow Go's structured control flow —
// if/else, for/range (with backedges), switch/type-switch (including
// fallthrough), select (one successor per communication clause),
// labeled break/continue, goto, return and explicit panic/os.Exit
// (edges to the shared Exit block). Defer statements are kept as
// ordinary nodes in their block: running a deferred call at every exit
// edge would be path-insensitive, so passes that care (locksafe)
// instead carry the set of registered defers in their dataflow state
// and apply it when a path reaches Exit — which models conditional
// defers correctly.
package cfg

import (
	"go/ast"
	"go/token"
)

// BlockKind classifies what role a block plays in the structured
// control flow it was built from. Passes use kinds to recognise loop
// guards and select dispatches without re-deriving them from the AST.
type BlockKind uint8

const (
	// KindBody is an ordinary straight-line block.
	KindBody BlockKind = iota
	// KindEntry is the function entry block (also the first body block).
	KindEntry
	// KindExit is the shared exit block; every return, panic and
	// fall-off-the-end edge lands here. It holds no nodes.
	KindExit
	// KindForCond is a for-loop header. Ctrl is the condition
	// expression, or the *ast.ForStmt itself when the loop has no
	// condition (for {}). A conditionless header has no exit edge.
	KindForCond
	// KindRangeHead is a range-loop header; Ctrl is the *ast.RangeStmt.
	// It always has an exit edge (ranges terminate — over a channel,
	// when the channel is closed).
	KindRangeHead
	// KindSelect is a select dispatch block; Ctrl is the
	// *ast.SelectStmt. Its successors are the KindSelectCase blocks.
	// A select without a default clause blocks until a case is ready,
	// so it has no fallthrough successor.
	KindSelect
	// KindSelectCase is the body of one select communication clause;
	// Ctrl is the *ast.CommClause (whose Comm is the send/receive, or
	// nil for default).
	KindSelectCase
	// KindIfCond is an if-statement condition block; Ctrl is the
	// condition expression.
	KindIfCond
	// KindSwitchHead is a switch or type-switch dispatch block; Ctrl is
	// the *ast.SwitchStmt or *ast.TypeSwitchStmt.
	KindSwitchHead
	// KindCase is one switch case clause body; Ctrl is the
	// *ast.CaseClause.
	KindCase
)

// Block is a basic block: a run of statements executed in order, ended
// by a control transfer. Nodes holds the statements (and, for guard
// blocks, the controlling expression) in execution order.
type Block struct {
	Index int
	Kind  BlockKind
	// Ctrl is the controlling AST node for guard/dispatch blocks (see
	// the BlockKind docs); nil for plain body blocks.
	Ctrl  ast.Node
	Nodes []ast.Node
	Succs []*Block
	Preds []*Block
}

// Graph is the CFG of one function body. Blocks[0] is Entry; Exit is
// the unique sink. Blocks created for statements that follow a return
// or other terminal statement stay in Blocks with no predecessors, so
// dead statements remain accounted for (see Unreachable).
type Graph struct {
	Entry  *Block
	Exit   *Block
	Blocks []*Block
}

// terminalCalls lists package-level functions whose call never returns;
// a call to one ends its block with an edge straight to Exit. Method
// calls named Fatal/Fatalf/FailNow (testing.T and log.Logger) are
// handled by name in isTerminalCall.
var terminalCalls = map[string]map[string]bool{
	"os":      {"Exit": true},
	"runtime": {"Goexit": true},
	"log":     {"Fatal": true, "Fatalf": true, "Fatalln": true, "Panic": true, "Panicf": true, "Panicln": true},
}

// New builds the CFG for a function body. The body may come from an
// *ast.FuncDecl or an *ast.FuncLit; nested function literals are NOT
// descended into — they are separate functions with separate graphs,
// and their defining expression is just a value in the enclosing
// block.
func New(body *ast.BlockStmt) *Graph {
	b := &builder{g: &Graph{}}
	b.g.Entry = b.newBlock(KindEntry, nil)
	b.g.Exit = &Block{Kind: KindExit}
	b.cur = b.g.Entry
	b.stmtList(body.List)
	// Fall off the end = implicit return, but only when the final
	// block is live: a continuation block after `return` or `for {}`
	// has no predecessors and must not fabricate an exit edge.
	if len(b.cur.Preds) > 0 || b.cur == b.g.Entry {
		b.jump(b.cur, b.g.Exit)
	}
	b.resolveGotos()
	b.g.Exit.Index = len(b.g.Blocks)
	b.g.Blocks = append(b.g.Blocks, b.g.Exit)
	return b.g
}

// target is a pending break/continue destination, optionally labeled.
type target struct {
	label string
	block *Block
}

type pendingGoto struct {
	from  *Block
	label string
}

type builder struct {
	g         *Graph
	cur       *Block
	breaks    []target
	continues []target
	labels    map[string]*Block // goto targets
	gotos     []pendingGoto
	// pendingLabel is set while lowering the statement under a
	// LabeledStmt, so loops/switches can register label-qualified
	// break/continue targets.
	pendingLabel string
}

func (b *builder) newBlock(kind BlockKind, ctrl ast.Node) *Block {
	blk := &Block{Index: len(b.g.Blocks), Kind: kind, Ctrl: ctrl}
	b.g.Blocks = append(b.g.Blocks, blk)
	return blk
}

func (b *builder) jump(from, to *Block) {
	if from == nil {
		return
	}
	from.Succs = append(from.Succs, to)
	to.Preds = append(to.Preds, from)
}

// startDead begins a fresh block with no predecessors, used after a
// terminal statement so trailing (dead) statements are still recorded.
func (b *builder) startDead() {
	b.cur = b.newBlock(KindBody, nil)
}

func (b *builder) add(n ast.Node) {
	b.cur.Nodes = append(b.cur.Nodes, n)
}

func (b *builder) stmtList(list []ast.Stmt) {
	for _, s := range list {
		b.stmt(s)
	}
}

// takeLabel consumes the pending label for the statement being lowered.
func (b *builder) takeLabel() string {
	l := b.pendingLabel
	b.pendingLabel = ""
	return l
}

func (b *builder) stmt(s ast.Stmt) {
	switch s := s.(type) {
	case *ast.LabeledStmt:
		// The label is both a goto target and (for loops/switches) a
		// break/continue qualifier.
		lbl := b.newBlock(KindBody, nil)
		b.jump(b.cur, lbl)
		b.cur = lbl
		if b.labels == nil {
			b.labels = map[string]*Block{}
		}
		b.labels[s.Label.Name] = lbl
		b.pendingLabel = s.Label.Name
		b.stmt(s.Stmt)
		b.pendingLabel = ""

	case *ast.BlockStmt:
		b.takeLabel()
		b.stmtList(s.List)

	case *ast.ReturnStmt:
		b.add(s)
		b.jump(b.cur, b.g.Exit)
		b.startDead()

	case *ast.BranchStmt:
		b.branch(s)

	case *ast.IfStmt:
		b.takeLabel()
		b.ifStmt(s)

	case *ast.ForStmt:
		b.forStmt(s, b.takeLabel())

	case *ast.RangeStmt:
		b.rangeStmt(s, b.takeLabel())

	case *ast.SwitchStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		if s.Tag != nil {
			b.add(s.Tag)
		}
		b.switchBody(s, s.Body.List, b.takeLabel())

	case *ast.TypeSwitchStmt:
		if s.Init != nil {
			b.add(s.Init)
		}
		b.add(s.Assign)
		b.switchBody(s, s.Body.List, b.takeLabel())

	case *ast.SelectStmt:
		b.selectStmt(s, b.takeLabel())

	case *ast.ExprStmt:
		b.add(s)
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok && isTerminalCall(call) {
			b.jump(b.cur, b.g.Exit)
			b.startDead()
		}

	default:
		// Assignments, declarations, sends, incdec, defer, go, empty:
		// straight-line nodes.
		b.add(s)
	}
}

// isTerminalCall recognises calls that never return: the panic builtin,
// os.Exit/runtime.Goexit/log.Fatal* by package-qualified name, and
// Fatal/Fatalf/FailNow method calls (testing helpers). Resolution is
// purely syntactic — the CFG is built before type information is
// consulted — which is the right conservatism: a local function that
// shadows panic is vanishingly rare, and treating t.Fatalf as terminal
// in test helpers only tightens paths.
func isTerminalCall(call *ast.CallExpr) bool {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return fun.Name == "panic"
	case *ast.SelectorExpr:
		name := fun.Sel.Name
		if id, ok := ast.Unparen(fun.X).(*ast.Ident); ok {
			if m, ok := terminalCalls[id.Name]; ok && m[name] {
				return true
			}
		}
		return name == "Fatal" || name == "Fatalf" || name == "FailNow"
	}
	return false
}

func (b *builder) branch(s *ast.BranchStmt) {
	label := ""
	if s.Label != nil {
		label = s.Label.Name
	}
	switch s.Tok {
	case token.BREAK:
		if t := findTarget(b.breaks, label); t != nil {
			b.add(s)
			b.jump(b.cur, t)
			b.startDead()
			return
		}
	case token.CONTINUE:
		if t := findTarget(b.continues, label); t != nil {
			b.add(s)
			b.jump(b.cur, t)
			b.startDead()
			return
		}
	case token.GOTO:
		b.add(s)
		b.gotos = append(b.gotos, pendingGoto{from: b.cur, label: label})
		b.startDead()
		return
	case token.FALLTHROUGH:
		// Handled structurally in switchBody; reaching here means a
		// malformed placement — keep it as a plain node.
	}
	b.add(s)
}

func findTarget(stack []target, label string) *Block {
	for i := len(stack) - 1; i >= 0; i-- {
		if label == "" || stack[i].label == label {
			return stack[i].block
		}
	}
	return nil
}

func (b *builder) resolveGotos() {
	for _, g := range b.gotos {
		if t, ok := b.labels[g.label]; ok {
			b.jump(g.from, t)
		} else {
			// Unresolvable label (malformed source); be conservative and
			// let the path continue to exit.
			b.jump(g.from, b.g.Exit)
		}
	}
}

func (b *builder) ifStmt(s *ast.IfStmt) {
	if s.Init != nil {
		b.add(s.Init)
	}
	cond := b.newBlock(KindIfCond, s.Cond)
	cond.Nodes = append(cond.Nodes, s.Cond)
	b.jump(b.cur, cond)

	after := b.newBlock(KindBody, nil)

	then := b.newBlock(KindBody, nil)
	b.jump(cond, then)
	b.cur = then
	b.stmtList(s.Body.List)
	b.jump(b.cur, after)

	if s.Else != nil {
		els := b.newBlock(KindBody, nil)
		b.jump(cond, els)
		b.cur = els
		b.stmt(s.Else)
		b.jump(b.cur, after)
	} else {
		b.jump(cond, after)
	}
	b.cur = after
}

func (b *builder) forStmt(s *ast.ForStmt, label string) {
	if s.Init != nil {
		b.add(s.Init)
	}
	var ctrl ast.Node = s.Cond
	if s.Cond == nil {
		ctrl = s
	}
	head := b.newBlock(KindForCond, ctrl)
	if s.Cond != nil {
		head.Nodes = append(head.Nodes, s.Cond)
	}
	b.jump(b.cur, head)

	after := b.newBlock(KindBody, nil)
	if s.Cond != nil {
		b.jump(head, after) // condition false
	}

	// continue goes to the post statement (its own block) or the head.
	cont := head
	var post *Block
	if s.Post != nil {
		post = b.newBlock(KindBody, nil)
		post.Nodes = append(post.Nodes, s.Post)
		b.jump(post, head)
		cont = post
	}

	b.breaks = append(b.breaks, target{label, after}, target{"", after})
	b.continues = append(b.continues, target{label, cont}, target{"", cont})

	body := b.newBlock(KindBody, nil)
	b.jump(head, body)
	b.cur = body
	b.stmtList(s.Body.List)
	b.jump(b.cur, cont)

	b.breaks = b.breaks[:len(b.breaks)-2]
	b.continues = b.continues[:len(b.continues)-2]
	b.cur = after
}

func (b *builder) rangeStmt(s *ast.RangeStmt, label string) {
	head := b.newBlock(KindRangeHead, s)
	head.Nodes = append(head.Nodes, s.X)
	b.jump(b.cur, head)

	after := b.newBlock(KindBody, nil)
	b.jump(head, after) // range exhausted (or channel closed)

	b.breaks = append(b.breaks, target{label, after}, target{"", after})
	b.continues = append(b.continues, target{label, head}, target{"", head})

	body := b.newBlock(KindBody, nil)
	b.jump(head, body)
	b.cur = body
	b.stmtList(s.Body.List)
	b.jump(b.cur, head)

	b.breaks = b.breaks[:len(b.breaks)-2]
	b.continues = b.continues[:len(b.continues)-2]
	b.cur = after
}

// switchBody lowers a switch or type-switch: a dispatch block fanning
// out to one KindCase block per clause, with fallthrough lowered as an
// edge to the next clause's body and a default-less switch keeping an
// edge from the dispatch to after.
func (b *builder) switchBody(sw ast.Stmt, clauses []ast.Stmt, label string) {
	head := b.newBlock(KindSwitchHead, sw)
	b.jump(b.cur, head)
	after := b.newBlock(KindBody, nil)

	b.breaks = append(b.breaks, target{label, after}, target{"", after})

	// Build case bodies first so fallthrough can target the next one.
	bodies := make([]*Block, len(clauses))
	hasDefault := false
	for i, c := range clauses {
		cc := c.(*ast.CaseClause)
		bodies[i] = b.newBlock(KindCase, cc)
		if cc.List == nil {
			hasDefault = true
		}
		for _, e := range cc.List {
			bodies[i].Nodes = append(bodies[i].Nodes, e)
		}
		b.jump(head, bodies[i])
	}
	if !hasDefault {
		b.jump(head, after)
	}
	for i, c := range clauses {
		cc := c.(*ast.CaseClause)
		b.cur = bodies[i]
		falls := false
		for _, st := range cc.Body {
			if br, ok := st.(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
				b.add(st)
				falls = true
				continue
			}
			b.stmt(st)
		}
		if falls && i+1 < len(bodies) {
			b.jump(b.cur, bodies[i+1])
			b.startDead()
		} else {
			b.jump(b.cur, after)
		}
	}

	b.breaks = b.breaks[:len(b.breaks)-2]
	b.cur = after
}

func (b *builder) selectStmt(s *ast.SelectStmt, label string) {
	head := b.newBlock(KindSelect, s)
	b.jump(b.cur, head)
	after := b.newBlock(KindBody, nil)

	b.breaks = append(b.breaks, target{label, after}, target{"", after})

	for _, c := range s.Body.List {
		cc := c.(*ast.CommClause)
		body := b.newBlock(KindSelectCase, cc)
		if cc.Comm != nil {
			body.Nodes = append(body.Nodes, cc.Comm)
		}
		b.jump(head, body)
		b.cur = body
		b.stmtList(cc.Body)
		b.jump(b.cur, after)
	}
	// A select with no cases blocks forever; one with cases always
	// takes some case — there is no fall-through edge from the
	// dispatch itself.
	if len(s.Body.List) == 0 {
		// select{} never proceeds: no edge to after.
		_ = after
	}

	b.breaks = b.breaks[:len(b.breaks)-2]
	b.cur = after
}

// Reachable returns the set of blocks reachable from Entry.
func (g *Graph) Reachable() map[*Block]bool {
	seen := map[*Block]bool{}
	var walk func(*Block)
	walk = func(b *Block) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, s := range b.Succs {
			walk(s)
		}
	}
	walk(g.Entry)
	return seen
}

// Unreachable returns the statements that no path from Entry reaches —
// dead code after returns, breaks and terminal calls. Guard expressions
// are excluded; only whole statements are reported.
func (g *Graph) Unreachable() []ast.Node {
	live := g.Reachable()
	var dead []ast.Node
	for _, b := range g.Blocks {
		if live[b] {
			continue
		}
		for _, n := range b.Nodes {
			if _, ok := n.(ast.Stmt); ok {
				dead = append(dead, n)
			}
		}
	}
	return dead
}

// PostOrder returns the reachable blocks in depth-first postorder.
func (g *Graph) PostOrder() []*Block {
	var order []*Block
	seen := map[*Block]bool{}
	var walk func(*Block)
	walk = func(b *Block) {
		if seen[b] {
			return
		}
		seen[b] = true
		for _, s := range b.Succs {
			walk(s)
		}
		order = append(order, b)
	}
	walk(g.Entry)
	return order
}

// ReversePostOrder returns the reachable blocks in reverse postorder —
// the canonical iteration order for forward dataflow: a block's
// predecessors (backedges aside) are visited before it.
func (g *Graph) ReversePostOrder() []*Block {
	post := g.PostOrder()
	for i, j := 0, len(post)-1; i < j; i, j = i+1, j-1 {
		post[i], post[j] = post[j], post[i]
	}
	return post
}

// SCCs returns the nontrivial strongly connected components of the
// reachable graph: every loop (natural or irreducible, via goto) shows
// up as one component. A single block forms a component only if it has
// a self-edge. Components are the unit goroleak reasons about: "does
// every cycle observe its stop signal" is a per-SCC question.
func (g *Graph) SCCs() [][]*Block {
	// Tarjan's algorithm, iterative enough for function-sized graphs.
	index := map[*Block]int{}
	low := map[*Block]int{}
	onStack := map[*Block]bool{}
	var stack []*Block
	var sccs [][]*Block
	next := 0
	live := g.Reachable()

	var strong func(b *Block)
	strong = func(b *Block) {
		index[b] = next
		low[b] = next
		next++
		stack = append(stack, b)
		onStack[b] = true
		for _, s := range b.Succs {
			if !live[s] {
				continue
			}
			if _, seen := index[s]; !seen {
				strong(s)
				if low[s] < low[b] {
					low[b] = low[s]
				}
			} else if onStack[s] && index[s] < low[b] {
				low[b] = index[s]
			}
		}
		if low[b] == index[b] {
			var comp []*Block
			for {
				top := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[top] = false
				comp = append(comp, top)
				if top == b {
					break
				}
			}
			selfLoop := false
			for _, s := range comp[0].Succs {
				if s == comp[0] {
					selfLoop = true
				}
			}
			if len(comp) > 1 || selfLoop {
				sccs = append(sccs, comp)
			}
		}
	}
	for _, b := range g.Blocks {
		if live[b] {
			if _, seen := index[b]; !seen {
				strong(b)
			}
		}
	}
	return sccs
}
