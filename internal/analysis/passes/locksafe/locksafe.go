// Package locksafe enforces the mutex discipline of the serving stack
// with a path-sensitive analysis over the intraprocedural CFG. Three
// contracts:
//
//  1. Pairing: every mu.Lock()/RLock() must be matched by an
//     Unlock()/RUnlock() on every CFG path to function exit — including
//     the panic path, which only a defer can cover. The dataflow fact
//     is a may-held lock set with must-bits (join: union of tokens,
//     AND of must-bits) plus the must-set of registered deferred
//     unlocks, so a defer inside a conditional does not excuse the
//     branch that skipped it.
//
//  2. No blocking while holding a serving mutex: the memo shard
//     mutexes, the service Server/job mutexes and the peer-source and
//     breaker mutexes sit on the request hot path; a channel
//     operation, time.Sleep, network round-trip or disk I/O while one
//     is held turns a nanosecond critical section into a convoy.
//     (DiskStore.compactMu is deliberately NOT on this list: it exists
//     to serialise compaction I/O.)
//
//  3. No by-value copy of a lock-bearing struct: value parameters,
//     value receivers, plain assignments and range clauses whose type
//     transitively contains a sync primitive or sync/atomic typed
//     value copy the lock state and desynchronise it.
//
// Locks are tracked as tokens — the root object plus the selector path
// of the expression the Lock method is called on ("s.mu", "c.peersMu")
// — so two locks reached through different local variables are
// distinct, and re-assigning the root kills nothing (conservative but
// correct for the flat patterns the serving stack uses).
package locksafe

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"

	"additivity/internal/analysis"
	"additivity/internal/analysis/cfg"
)

// Analyzer is the locksafe pass.
var Analyzer = &analysis.Analyzer{
	Name: "locksafe",
	Doc:  "mutexes unlocked on every path (incl. panic-via-defer), no blocking ops under serving mutexes, no by-value lock copies",
	Run:  run,
}

// scope lists the packages whose locking is under contract.
var scope = []string{
	"internal/service", "internal/memo", "internal/memo/peer",
	"internal/loadgen", "internal/parallel",
}

// servingMutex lists (type, field) pairs of mutexes on the request hot
// path, keyed by the package-path suffix of the declaring type. Only
// these trigger the blocking-while-held contract; coarse maintenance
// mutexes (DiskStore.compactMu serialising compaction I/O) stay free
// to block. In fixture packages every mutex is treated as serving so
// the golden tests exercise the contract without replicating the
// production type graph.
var servingMutex = map[[2]string]string{
	{"shard", "mu"}:          "internal/memo",
	{"Cache", "peersMu"}:     "internal/memo",
	{"Breaker", "mu"}:        "internal/memo",
	{"Server", "mu"}:         "internal/service",
	{"job", "mu"}:            "internal/service",
	{"chaosTransport", "mu"}: "internal/loadgen",
}

func run(pass *analysis.Pass) {
	if !analysis.InScope(pass.Pkg.Path(), scope...) {
		return
	}
	for _, f := range pass.Files {
		if analysis.IsTestFile(pass.Fset, f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			var body *ast.BlockStmt
			switch fn := n.(type) {
			case *ast.FuncDecl:
				body = fn.Body
			case *ast.FuncLit:
				body = fn.Body
			}
			if body != nil {
				checkFunc(pass, body)
			}
			if _, ok := n.(*ast.FuncLit); ok {
				return false // checkFunc recurses into nested literals itself
			}
			return true
		})
		checkCopies(pass, f)
	}
}

// ---- lock token resolution ----

// lockToken names one mutex: the root object identity (so shadowing
// cannot alias two locks) plus the printed selector path for messages.
type lockToken struct {
	root types.Object
	path string
}

// resolveToken resolves the receiver expression of a Lock/Unlock call
// (`s.mu` in `s.mu.Lock()`) to a token. Expressions rooted in a call
// or index return ok=false and are left untracked.
func resolveToken(info *types.Info, e ast.Expr) (lockToken, bool) {
	var parts []string
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			obj := info.Uses[x]
			if obj == nil {
				obj = info.Defs[x]
			}
			if obj == nil {
				return lockToken{}, false
			}
			parts = append(parts, x.Name)
			for i, j := 0, len(parts)-1; i < j; i, j = i+1, j-1 {
				parts[i], parts[j] = parts[j], parts[i]
			}
			return lockToken{root: obj, path: strings.Join(parts, ".")}, true
		case *ast.SelectorExpr:
			parts = append(parts, x.Sel.Name)
			e = x.X
		default:
			return lockToken{}, false
		}
	}
}

// servingKind classifies a lock receiver expression: is the final field
// one of the serving mutexes? In fixture packages, every mutex serves.
func isServingMutex(pass *analysis.Pass, e ast.Expr) bool {
	pkgPath := pass.Pkg.Path()
	fixture := strings.Contains(pkgPath, "testdata") || strings.Contains(pkgPath, "fixture")
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		// A bare mutex variable; only fixtures treat it as serving.
		return fixture
	}
	if fixture {
		return true
	}
	tv, ok := pass.Info.Types[sel.X]
	if !ok {
		return false
	}
	named, ok := analysis.Deref(tv.Type).(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	pkgSuffix, ok := servingMutex[[2]string{named.Obj().Name(), sel.Sel.Name}]
	return ok && analysis.PathMatches(named.Obj().Pkg().Path(), pkgSuffix)
}

// lockMethod classifies a call as a mutex operation on a
// sync.Mutex/RWMutex receiver.
type lockOp int

const (
	opNone lockOp = iota
	opLock
	opUnlock
	opRLock
	opRUnlock
)

func classifyLockCall(info *types.Info, call *ast.CallExpr) (lockOp, ast.Expr) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return opNone, nil
	}
	fn := analysis.CalleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return opNone, nil
	}
	switch fn.Name() {
	case "Lock":
		return opLock, sel.X
	case "Unlock":
		return opUnlock, sel.X
	case "RLock":
		return opRLock, sel.X
	case "RUnlock":
		return opRUnlock, sel.X
	}
	return opNone, nil
}

// ---- dataflow fact ----

type heldInfo struct {
	pos     token.Pos // lock site (first seen)
	must    bool      // held on every path reaching here
	read    bool      // RLock (shared) rather than Lock
	serving bool      // on the blocking-while-held list
	// deferred marks a registered `defer mu.Unlock()` on every path
	// where this token is held. Kept on the token (not in a separate
	// set) so a join with a path that never locked cannot erase it:
	// `if x == nil { return }; mu.Lock(); defer mu.Unlock()` is clean.
	deferred bool
}

type lockFact struct {
	held map[lockToken]*heldInfo
	// deferred holds tokens with a registered `defer mu.Unlock()`,
	// as a must-set: a token survives a join only if every inbound
	// path registered the defer.
	deferred map[lockToken]bool
	// seen marks that at least one predecessor path reached this
	// point; distinguishes bottom (no info yet) from "empty lock set".
	seen bool
}

func bottomFact() *lockFact {
	return &lockFact{held: map[lockToken]*heldInfo{}, deferred: map[lockToken]bool{}}
}

func cloneFact(f *lockFact) *lockFact {
	c := &lockFact{
		held:     make(map[lockToken]*heldInfo, len(f.held)),
		deferred: make(map[lockToken]bool, len(f.deferred)),
		seen:     f.seen,
	}
	for k, v := range f.held {
		h := *v
		c.held[k] = &h
	}
	for k := range f.deferred {
		c.deferred[k] = true
	}
	return c
}

// mergeFact joins src into dst: union of held tokens with must-bits
// ANDed, intersection of deferred sets.
func mergeFact(dst, src *lockFact) bool {
	if !src.seen {
		return false
	}
	changed := false
	if !dst.seen {
		dst.seen = true
		changed = true
		for k, v := range src.held {
			h := *v
			dst.held[k] = &h
		}
		for k := range src.deferred {
			dst.deferred[k] = true
		}
		return true
	}
	for k, v := range src.held {
		if d, ok := dst.held[k]; ok {
			if d.must && !v.must {
				d.must = false
				changed = true
			}
			if d.deferred && !v.deferred {
				d.deferred = false
				changed = true
			}
		} else {
			h := *v
			h.must = false
			dst.held[k] = &h
			changed = true
		}
	}
	for k, d := range dst.held {
		if _, ok := src.held[k]; !ok && d.must {
			d.must = false
			changed = true
		}
	}
	for k := range dst.deferred {
		if !src.deferred[k] {
			delete(dst.deferred, k)
			changed = true
		}
	}
	return changed
}

// ---- the per-function check ----

func checkFunc(pass *analysis.Pass, body *ast.BlockStmt) {
	g := cfg.New(body)

	// Communication clauses of a select that has a default never
	// block: the default makes the whole select non-blocking. Their
	// comm statements appear as CFG nodes and must be exempt from the
	// blocking-while-held report.
	nonBlocking := map[ast.Node]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectStmt)
		if !ok {
			return true
		}
		hasDefault := false
		for _, c := range sel.Body.List {
			if cc := c.(*ast.CommClause); cc.Comm == nil {
				hasDefault = true
			}
		}
		if hasDefault {
			for _, c := range sel.Body.List {
				if cc := c.(*ast.CommClause); cc.Comm != nil {
					nonBlocking[cc.Comm] = true
				}
			}
		}
		return true
	})

	spec := cfg.FlowSpec[*lockFact]{
		Entry:  &lockFact{held: map[lockToken]*heldInfo{}, deferred: map[lockToken]bool{}, seen: true},
		Bottom: bottomFact,
		Clone:  cloneFact,
		Merge:  mergeFact,
		Transfer: func(b *cfg.Block, in *lockFact) *lockFact {
			for _, n := range b.Nodes {
				transferNode(pass, n, in, nil, nonBlocking)
			}
			return in
		},
	}
	in := cfg.Forward(g, spec)

	// Reporting sweep: re-run transfer over final in-facts, emitting.
	var diags []string // dedup within the function
	emit := func(pos token.Pos, format string, args ...any) {
		msg := fmt.Sprintf(format, args...)
		key := fmt.Sprintf("%d:%s", pos, msg)
		for _, d := range diags {
			if d == key {
				return
			}
		}
		diags = append(diags, key)
		pass.Reportf(pos, format, args...)
	}
	for _, b := range g.ReversePostOrder() {
		f := cloneFact(in[b])
		if !f.seen {
			continue
		}
		for _, n := range b.Nodes {
			transferNode(pass, n, f, emit, nonBlocking)
		}
	}

	// Exit check: anything still (possibly) held at exit without a
	// registered deferred unlock leaks on some path.
	exit := in[g.Exit]
	if exit != nil && exit.seen {
		var leaks []*heldInfo
		var toks []lockToken
		for k, h := range exit.held {
			if !h.deferred {
				leaks = append(leaks, h)
				toks = append(toks, k)
			}
		}
		sort.Slice(leaks, func(i, j int) bool { return leaks[i].pos < leaks[j].pos })
		sort.Slice(toks, func(i, j int) bool { return exit.held[toks[i]].pos < exit.held[toks[j]].pos })
		for i, h := range leaks {
			kind := "Lock"
			if h.read {
				kind = "RLock"
			}
			emit(h.pos, "locksafe: %s of %s is not released on every path to function exit (add the missing Unlock or defer it)", kind, toks[i].path)
		}
	}
}

// transferNode interprets one CFG node. With emit == nil it only
// updates the fact (fixpoint phase); with emit set it also reports.
// nonBlocking exempts comm statements of default-carrying selects.
func transferNode(pass *analysis.Pass, n ast.Node, f *lockFact, emit func(token.Pos, string, ...any), nonBlocking map[ast.Node]bool) {
	// Blocking-operation check first, against the pre-state of this
	// node: a receive that happens before this node's own Lock runs is
	// covered by the previous node's post-state.
	if emit != nil && !nonBlocking[n] {
		if desc, pos := blockingOp(pass, n); desc != "" {
			for tok, h := range f.held {
				if h.serving {
					emit(pos, "locksafe: %s while %s is held; release the mutex before blocking", desc, tok.path)
				}
			}
		}
	}

	switch s := n.(type) {
	case *ast.DeferStmt:
		registerDefer(pass, s, f)
		return
	case *ast.ExprStmt:
		if call, ok := ast.Unparen(s.X).(*ast.CallExpr); ok {
			applyLockCall(pass, call, f, emit)
		}
		return
	}
	// Lock calls can also hide in conditions and assignments (rare:
	// `if mu.TryLock()` is not used in this tree); scan expressions
	// shallowly, skipping nested function literals.
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := m.(*ast.CallExpr); ok {
			if op, _ := classifyLockCall(pass.Info, call); op != opNone {
				applyLockCall(pass, call, f, emit)
			}
		}
		return true
	})
}

func applyLockCall(pass *analysis.Pass, call *ast.CallExpr, f *lockFact, emit func(token.Pos, string, ...any)) {
	op, recv := classifyLockCall(pass.Info, call)
	if op == opNone {
		return
	}
	tok, ok := resolveToken(pass.Info, recv)
	if !ok {
		return
	}
	switch op {
	case opLock, opRLock:
		if h, held := f.held[tok]; held && h.must && !h.read && op == opLock {
			if emit != nil {
				emit(call.Pos(), "locksafe: %s is already held here; locking it again self-deadlocks", tok.path)
			}
			return
		}
		f.held[tok] = &heldInfo{
			pos:     call.Pos(),
			must:    true,
			read:    op == opRLock,
			serving: isServingMutex(pass, recv),
			// A defer registered earlier on this path still runs at
			// exit and covers a re-acquisition.
			deferred: f.deferred[tok],
		}
	case opUnlock, opRUnlock:
		if _, held := f.held[tok]; !held && !f.deferred[tok] {
			if emit != nil {
				emit(call.Pos(), "locksafe: unlock of %s which is not held on any path reaching this point", tok.path)
			}
			return
		}
		delete(f.held, tok)
	}
}

// registerDefer records deferred unlocks: `defer mu.Unlock()` directly,
// or a deferred function literal whose body unlocks (the
// `defer func() { ...; mu.Unlock() }()` recovery idiom).
func registerDefer(pass *analysis.Pass, d *ast.DeferStmt, f *lockFact) {
	record := func(call *ast.CallExpr) {
		op, recv := classifyLockCall(pass.Info, call)
		if op != opUnlock && op != opRUnlock {
			return
		}
		if tok, ok := resolveToken(pass.Info, recv); ok {
			f.deferred[tok] = true
			if h, held := f.held[tok]; held {
				h.deferred = true
			}
		}
	}
	record(d.Call)
	if lit, ok := ast.Unparen(d.Call.Fun).(*ast.FuncLit); ok {
		ast.Inspect(lit.Body, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				record(call)
			}
			return true
		})
	}
}

// ---- blocking-operation classification ----

// blockingFuncs lists package-level functions that block on I/O or time.
var blockingFuncs = map[string]map[string]bool{
	"time": {"Sleep": true},
	"io":   {"ReadAll": true, "Copy": true, "CopyN": true, "CopyBuffer": true},
	"os": {
		"ReadFile": true, "WriteFile": true, "Open": true, "Create": true,
		"OpenFile": true, "Rename": true, "Remove": true, "RemoveAll": true,
		"ReadDir": true, "MkdirAll": true, "Mkdir": true,
	},
	"net":           {"Dial": true, "DialTimeout": true, "Listen": true},
	"net/http":      {"Get": true, "Post": true, "Head": true, "PostForm": true},
	"net/http/http": {},
}

// blockingMethods lists (receiver-type package, method) pairs.
type methodKey struct{ pkg, typ, name string }

var blockingMethods = map[methodKey]bool{
	{"sync", "WaitGroup", "Wait"}:   true,
	{"net/http", "Client", "Do"}:    true,
	{"net/http", "Client", "Get"}:   true,
	{"net/http", "Client", "Post"}:  true,
	{"net/http", "Client", "Head"}:  true,
	{"os", "File", "Read"}:          true,
	{"os", "File", "Write"}:         true,
	{"os", "File", "Sync"}:          true,
	{"os", "File", "ReadDir"}:       true,
	{"time", "Timer", "Stop"}:       false, // non-blocking; listed for clarity
	{"context", "Context", "Done"}:  false,
	{"sync", "Mutex", "Lock"}:       false, // handled by the pairing analysis
	{"sync", "RWMutex", "Lock"}:     false,
	{"sync", "RWMutex", "RLock"}:    false,
	{"sync", "Cond", "Wait"}:        true,
	{"net", "Conn", "Read"}:         true,
	{"net", "Conn", "Write"}:        true,
	{"bufio", "Reader", "ReadByte"}: true,
	{"bufio", "Scanner", "Scan"}:    true,
}

// blockingOp reports a human description and position if the node
// performs a blocking operation. Channel operations are recognised
// structurally; calls by callee identity. Nested function literals are
// skipped: defining a closure does not run it.
func blockingOp(pass *analysis.Pass, n ast.Node) (string, token.Pos) {
	// Select statements and range headers are represented by their
	// Ctrl nodes; a receive/send in a select blocks unless a default
	// exists, which the CFG models via the dispatch block (every case
	// is a successor, so the pre-state here is the dispatch state).
	switch s := n.(type) {
	case *ast.SendStmt:
		return "channel send", s.Arrow
	case *ast.RangeStmt:
		if tv, ok := pass.Info.Types[s.X]; ok {
			if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
				return "range over channel", s.For
			}
		}
		return "", token.NoPos
	}
	var desc string
	var pos token.Pos
	ast.Inspect(n, func(m ast.Node) bool {
		if desc != "" {
			return false
		}
		switch m := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.UnaryExpr:
			if m.Op == token.ARROW {
				desc, pos = "channel receive", m.OpPos
				return false
			}
		case *ast.SendStmt:
			desc, pos = "channel send", m.Arrow
			return false
		case *ast.CallExpr:
			fn := analysis.CalleeFunc(pass.Info, m)
			if fn == nil || fn.Pkg() == nil {
				return true
			}
			sig, _ := fn.Type().(*types.Signature)
			if sig != nil && sig.Recv() != nil {
				named, ok := analysis.Deref(sig.Recv().Type()).(*types.Named)
				if ok && named.Obj().Pkg() != nil {
					k := methodKey{named.Obj().Pkg().Path(), named.Obj().Name(), fn.Name()}
					if blockingMethods[k] {
						desc, pos = named.Obj().Name()+"."+fn.Name()+" ("+opClass(k)+")", m.Pos()
						return false
					}
				}
				return true
			}
			if blockingFuncs[fn.Pkg().Path()][fn.Name()] {
				desc, pos = fn.Pkg().Path()+"."+fn.Name()+" ("+funcClass(fn.Pkg().Path())+")", m.Pos()
				return false
			}
		}
		return true
	})
	return desc, pos
}

func opClass(k methodKey) string {
	switch k.pkg {
	case "net/http", "net":
		return "network round-trip"
	case "os", "bufio":
		return "disk I/O"
	default:
		return "blocking wait"
	}
}

func funcClass(pkg string) string {
	switch pkg {
	case "net/http", "net":
		return "network round-trip"
	case "os", "io":
		return "disk I/O"
	case "time":
		return "sleep"
	default:
		return "blocking call"
	}
}

// ---- copylock check ----

// checkCopies flags by-value copies of lock-bearing types: value
// parameters and receivers, plain `a := b` / `a = b` assignments from a
// non-composite expression, and range value clauses.
func checkCopies(pass *analysis.Pass, f *ast.File) {
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncDecl:
			checkFieldList(pass, n.Recv)
			if n.Type != nil {
				checkFieldList(pass, n.Type.Params)
			}
		case *ast.FuncLit:
			checkFieldList(pass, n.Type.Params)
		case *ast.AssignStmt:
			for i, rhs := range n.Rhs {
				if i >= len(n.Lhs) {
					break
				}
				if id, ok := ast.Unparen(n.Lhs[i]).(*ast.Ident); ok && id.Name == "_" {
					continue // discarded, nothing is desynchronised
				}
				if !copiesValue(rhs) {
					continue
				}
				if tv, ok := pass.Info.Types[rhs]; ok {
					if name := lockBearing(tv.Type); name != "" {
						pass.Reportf(rhs.Pos(), "locksafe: assignment copies %s by value, desynchronising its %s", typeLabel(tv.Type), name)
					}
				}
			}
		case *ast.RangeStmt:
			if n.Value != nil {
				if t := exprType(pass, n.Value); t != nil {
					if name := lockBearing(t); name != "" {
						pass.Reportf(n.Value.Pos(), "locksafe: range value copies %s by value, desynchronising its %s", typeLabel(t), name)
					}
				}
			}
		}
		return true
	})
}

func checkFieldList(pass *analysis.Pass, fl *ast.FieldList) {
	if fl == nil {
		return
	}
	for _, field := range fl.List {
		tv, ok := pass.Info.Types[field.Type]
		if !ok {
			continue
		}
		if name := lockBearing(tv.Type); name != "" {
			pass.Reportf(field.Type.Pos(), "locksafe: %s passed by value, desynchronising its %s; take a pointer", typeLabel(tv.Type), name)
		}
	}
}

// copiesValue reports whether evaluating the expression copies an
// existing value (as opposed to constructing a fresh one or taking a
// pointer).
func copiesValue(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident, *ast.IndexExpr:
		return true
	case *ast.SelectorExpr:
		return true
	case *ast.StarExpr:
		return true
	case *ast.CompositeLit, *ast.UnaryExpr, *ast.CallExpr, *ast.FuncLit, *ast.BasicLit:
		return false
	default:
		_ = e
		return false
	}
}

// lockBearing reports the name of the first sync primitive a type
// transitively contains by value ("" if none). Pointers, slices, maps
// and channels break the chain: copying a pointer to a mutex is fine.
func lockBearing(t types.Type) string {
	return lockBearingRec(t, map[types.Type]bool{})
}

func lockBearingRec(t types.Type, seen map[types.Type]bool) string {
	if t == nil || seen[t] {
		return ""
	}
	seen[t] = true
	if named, ok := t.(*types.Named); ok {
		if pkg := named.Obj().Pkg(); pkg != nil {
			switch pkg.Path() {
			case "sync":
				switch named.Obj().Name() {
				case "Mutex", "RWMutex", "WaitGroup", "Once", "Cond", "Map", "Pool":
					return "sync." + named.Obj().Name()
				}
			case "sync/atomic":
				switch named.Obj().Name() {
				case "Bool", "Int32", "Int64", "Uint32", "Uint64", "Uintptr", "Pointer", "Value":
					return "atomic." + named.Obj().Name()
				}
			}
		}
		return lockBearingRec(named.Underlying(), seen)
	}
	switch t := t.(type) {
	case *types.Struct:
		for i := 0; i < t.NumFields(); i++ {
			if name := lockBearingRec(t.Field(i).Type(), seen); name != "" {
				return name
			}
		}
	case *types.Array:
		return lockBearingRec(t.Elem(), seen)
	}
	return ""
}

// exprType resolves an expression's type, falling back to the defined
// object for idents introduced by the clause itself (range variables
// have no Types entry, only a Defs one).
func exprType(pass *analysis.Pass, e ast.Expr) types.Type {
	if tv, ok := pass.Info.Types[e]; ok {
		return tv.Type
	}
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		if obj := pass.Info.Defs[id]; obj != nil {
			return obj.Type()
		}
	}
	return nil
}

func typeLabel(t types.Type) string {
	if named, ok := analysis.Deref(t).(*types.Named); ok {
		return named.Obj().Name()
	}
	return t.String()
}
