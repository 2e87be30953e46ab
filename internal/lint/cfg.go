package lint

import (
	"go/ast"
	"go/token"
)

// This file is the control-flow half of the engine single-writer runs:
// buildCFG lowers one function body to basic blocks so a rule can run
// forward dataflow (dataflow.go) instead of a single syntactic sweep.
// The lowering is deliberately small — blocks hold the original
// ast.Stmt nodes in execution order and rules interpret them — but it
// is a real CFG: branches, loops, switches, selects, labeled
// break/continue, and goto all produce the edges a fixpoint needs to
// see facts merge at joins and flow around back edges.
//
// Function literals are NOT inlined: a nested FuncLit appears as an
// ordinary expression inside the statement that mentions it, and a
// rule analyzes the literal's body as a function of its own
// (single-writer reports a writer a literal captures).

// block is one basic block: statements that execute in order with no
// internal control transfer, plus the successor edges control can take
// afterwards. The expressions control evaluates — if and for
// conditions, switch tags and case expressions — are stored in the
// block that evaluates them: they cannot assign, but they can call a
// function, a Reallocator method included. A range header is stored as
// the RangeStmt itself, because the range assigns its key/value
// variables on every entry.
type block struct {
	nodes []ast.Node // statements, condition expressions, RangeStmt headers
	succs []*block
	index int // creation order; deterministic iteration
}

// cfg is the control-flow graph of one function body.
type cfg struct {
	entry  *block
	blocks []*block // creation order, entry first
}

// buildCFG lowers body. It never fails: constructs the builder does not
// model flow through (there are none in current Go) would simply fall
// through sequentially, which over-approximates reachability and can
// only surface more facts at a merge, never hide a finding.
func buildCFG(body *ast.BlockStmt) *cfg {
	b := &cfgBuilder{labels: make(map[string]*labelBlocks)}
	entry := b.newBlock()
	exit := b.stmtList(body.List, entry, flowCtx{})
	_ = exit
	return &cfg{entry: entry, blocks: b.blocks}
}

// labelBlocks are the jump targets one label can resolve to.
type labelBlocks struct {
	target *block // goto / labeled-statement entry
	brk    *block // labeled break
	cont   *block // labeled continue
}

// flowCtx carries the innermost break/continue targets and the label
// (if any) attached to the statement being lowered.
type flowCtx struct {
	brk   *block
	cont  *block
	label string // pending label for the next loop/switch statement
}

type cfgBuilder struct {
	blocks []*block
	labels map[string]*labelBlocks
}

func (b *cfgBuilder) newBlock() *block {
	blk := &block{index: len(b.blocks)}
	b.blocks = append(b.blocks, blk)
	return blk
}

func edge(from, to *block) {
	if from == nil || to == nil {
		return
	}
	for _, s := range from.succs {
		if s == to {
			return
		}
	}
	from.succs = append(from.succs, to)
}

// labelInfo returns (creating on demand, so forward gotos resolve) the
// label's record.
func (b *cfgBuilder) labelInfo(name string) *labelBlocks {
	li := b.labels[name]
	if li == nil {
		li = &labelBlocks{}
		b.labels[name] = li
	}
	return li
}

// stmtList lowers stmts starting in cur and returns the block where
// control continues, or nil when every path terminated (return, goto,
// break out of every enclosing construct).
func (b *cfgBuilder) stmtList(stmts []ast.Stmt, cur *block, fc flowCtx) *block {
	for _, s := range stmts {
		if cur == nil {
			// Unreachable code still gets a block so its writes are
			// scanned (with the empty entry state).
			cur = b.newBlock()
		}
		cur = b.stmt(s, cur, fc)
	}
	return cur
}

// stmt lowers one statement into cur and returns the continuation
// block (nil when control never falls through).
func (b *cfgBuilder) stmt(s ast.Stmt, cur *block, fc flowCtx) *block {
	switch s := s.(type) {
	case *ast.BlockStmt:
		return b.stmtList(s.List, cur, flowCtx{brk: fc.brk, cont: fc.cont})

	case *ast.LabeledStmt:
		li := b.labelInfo(s.Label.Name)
		if li.target == nil {
			li.target = b.newBlock()
		}
		edge(cur, li.target)
		inner := flowCtx{brk: fc.brk, cont: fc.cont, label: s.Label.Name}
		return b.stmt(s.Stmt, li.target, inner)

	case *ast.IfStmt:
		if s.Init != nil {
			cur = b.stmt(s.Init, cur, flowCtx{brk: fc.brk, cont: fc.cont})
		}
		cur.nodes = append(cur.nodes, s.Cond)
		after := b.newBlock()
		then := b.newBlock()
		edge(cur, then)
		if end := b.stmtList(s.Body.List, then, flowCtx{brk: fc.brk, cont: fc.cont}); end != nil {
			edge(end, after)
		}
		if s.Else != nil {
			els := b.newBlock()
			edge(cur, els)
			if end := b.stmt(s.Else, els, flowCtx{brk: fc.brk, cont: fc.cont}); end != nil {
				edge(end, after)
			}
		} else {
			edge(cur, after)
		}
		return after

	case *ast.ForStmt:
		if s.Init != nil {
			cur = b.stmt(s.Init, cur, flowCtx{brk: fc.brk, cont: fc.cont})
		}
		head := b.newBlock()
		after := b.newBlock()
		post := b.newBlock() // continue target (holds Post when present)
		edge(cur, head)
		if s.Cond != nil {
			head.nodes = append(head.nodes, s.Cond)
			edge(head, after)
		}
		if fc.label != "" {
			li := b.labelInfo(fc.label)
			li.brk, li.cont = after, post
		}
		body := b.newBlock()
		edge(head, body)
		if end := b.stmtList(s.Body.List, body, flowCtx{brk: after, cont: post}); end != nil {
			edge(end, post)
		}
		if s.Post != nil {
			b.stmt(s.Post, post, flowCtx{})
		}
		edge(post, head)
		return after

	case *ast.RangeStmt:
		head := b.newBlock()
		head.nodes = append(head.nodes, s) // the range header assigns key/value
		after := b.newBlock()
		edge(cur, head)
		edge(head, after) // a range may run zero times
		if fc.label != "" {
			li := b.labelInfo(fc.label)
			li.brk, li.cont = after, head
		}
		body := b.newBlock()
		edge(head, body)
		if end := b.stmtList(s.Body.List, body, flowCtx{brk: after, cont: head}); end != nil {
			edge(end, head)
		}
		return after

	case *ast.SwitchStmt, *ast.TypeSwitchStmt:
		var initStmt ast.Stmt
		var tag ast.Node // the switch tag, or the type switch's x.(type) statement
		var clauses []ast.Stmt
		exprSwitch := false
		switch sw := s.(type) {
		case *ast.SwitchStmt:
			initStmt, tag, clauses, exprSwitch = sw.Init, sw.Tag, sw.Body.List, true
		case *ast.TypeSwitchStmt:
			initStmt, tag, clauses = sw.Init, sw.Assign, sw.Body.List
		}
		if initStmt != nil {
			cur = b.stmt(initStmt, cur, flowCtx{brk: fc.brk, cont: fc.cont})
		}
		if tag != nil {
			cur.nodes = append(cur.nodes, tag)
		}
		after := b.newBlock()
		if fc.label != "" {
			b.labelInfo(fc.label).brk = after
		}
		hasDefault := false
		var caseBlocks []*block
		var caseBodies [][]ast.Stmt
		for _, cl := range clauses {
			cc, ok := cl.(*ast.CaseClause)
			if !ok {
				continue
			}
			if cc.List == nil {
				hasDefault = true
			}
			blk := b.newBlock()
			edge(cur, blk)
			if exprSwitch {
				for _, e := range cc.List {
					blk.nodes = append(blk.nodes, e)
				}
			}
			caseBlocks = append(caseBlocks, blk)
			caseBodies = append(caseBodies, cc.Body)
		}
		for i, blk := range caseBlocks {
			end := b.stmtListNoFallthrough(caseBodies[i], blk, flowCtx{brk: after, cont: fc.cont})
			if end.fellThrough && i+1 < len(caseBlocks) {
				edge(end.cont, caseBlocks[i+1])
			} else if end.cont != nil {
				edge(end.cont, after)
			}
		}
		if !hasDefault {
			edge(cur, after)
		}
		return after

	case *ast.SelectStmt:
		after := b.newBlock()
		if fc.label != "" {
			b.labelInfo(fc.label).brk = after
		}
		for _, cl := range s.Body.List {
			cc, ok := cl.(*ast.CommClause)
			if !ok {
				continue
			}
			blk := b.newBlock()
			edge(cur, blk)
			if cc.Comm != nil {
				blk.nodes = append(blk.nodes, cc.Comm)
			}
			if end := b.stmtList(cc.Body, blk, flowCtx{brk: after, cont: fc.cont}); end != nil {
				edge(end, after)
			}
		}
		if len(s.Body.List) == 0 {
			edge(cur, after)
		}
		return after

	case *ast.BranchStmt:
		switch s.Tok {
		case token.BREAK:
			if s.Label != nil {
				edge(cur, b.labelInfo(s.Label.Name).brk)
			} else {
				edge(cur, fc.brk)
			}
			return nil
		case token.CONTINUE:
			if s.Label != nil {
				edge(cur, b.labelInfo(s.Label.Name).cont)
			} else {
				edge(cur, fc.cont)
			}
			return nil
		case token.GOTO:
			li := b.labelInfo(s.Label.Name)
			if li.target == nil {
				li.target = b.newBlock()
			}
			edge(cur, li.target)
			return nil
		case token.FALLTHROUGH:
			// Handled by stmtListNoFallthrough; as a bare statement it
			// terminates the block.
			return nil
		}
		return cur

	case *ast.ReturnStmt:
		cur.nodes = append(cur.nodes, s)
		return nil

	default:
		// Straight-line statements: assignments, declarations, calls,
		// sends, go/defer, inc/dec, empty.
		cur.nodes = append(cur.nodes, s)
		return cur
	}
}

// caseEnd is stmtListNoFallthrough's result: the continuation block (nil
// when terminated) and whether the body ended in `fallthrough`.
type caseEnd struct {
	cont        *block
	fellThrough bool
}

// stmtListNoFallthrough lowers a case body, treating a trailing
// `fallthrough` as a transfer to the next case (reported to the
// caller) rather than a dead end.
func (b *cfgBuilder) stmtListNoFallthrough(stmts []ast.Stmt, cur *block, fc flowCtx) caseEnd {
	if n := len(stmts); n > 0 {
		if br, ok := stmts[n-1].(*ast.BranchStmt); ok && br.Tok == token.FALLTHROUGH {
			end := b.stmtList(stmts[:n-1], cur, fc)
			return caseEnd{cont: end, fellThrough: end != nil}
		}
	}
	return caseEnd{cont: b.stmtList(stmts, cur, fc)}
}
