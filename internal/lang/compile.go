package lang

import (
	"math"

	"repligc/internal/bytecode"
	"repligc/internal/core"
	"repligc/internal/heap"
)

// builtins maps identifier spellings to (opcode, arity). A builtin must be
// fully applied; it is recognised only when the name is not bound.
var builtins = map[string]struct {
	op    bytecode.Op
	arity int
}{
	"print":  {bytecode.OpPrint, 1},
	"itos":   {bytecode.OpItoS, 1},
	"stoi":   {bytecode.OpStoI, 1},
	"size":   {bytecode.OpSize, 1},
	"sub":    {bytecode.OpSub, 2},
	"array":  {bytecode.OpMkArray, 2},
	"aget":   {bytecode.OpAGet, 2},
	"aset":   {bytecode.OpASet, 3},
	"alen":   {bytecode.OpALen, 1},
	"spawn":  {bytecode.OpSpawn, 1},
	"yield":  {bytecode.OpYield, 1},
	"newsv":  {bytecode.OpNewSV, 1},
	"putsv":  {bytecode.OpPutSV, 2},
	"takesv": {bytecode.OpTakeSV, 1},
}

// freeVar is one captured variable of a function under compilation. Boxed
// variables (recursive fun-group bindings) are captured as their mutable
// environment record rather than by value, so mutually recursive closures
// observe the backpatched definitions.
type freeVar struct {
	sym   int32
	boxed bool
}

// funcCtx tracks one function being compiled: its accumulated free
// variables and the lexical context of its definition site, which is where
// captures are resolved.
type funcCtx struct {
	parent      *funcCtx
	parentScope core.Handle // the enclosing local scope at the fn expression
	free        []freeVar
	freeIdx     map[int32]int
}

func (f *funcCtx) addFree(sym int32, boxed bool) int {
	if f.freeIdx == nil {
		f.freeIdx = make(map[int32]int)
	}
	if i, ok := f.freeIdx[sym]; ok {
		return i
	}
	i := len(f.free)
	f.free = append(f.free, freeVar{sym: sym, boxed: boxed})
	f.freeIdx[sym] = i
	return i
}

// Compiler lowers the heap AST to bytecode with flat closure conversion:
// local bindings live in per-function chains of two-slot heap records
// (mirroring the runtime environment), and every fn captures exactly its
// free variables — the SML/NJ strategy, and the reason long-lived closures
// do not retain dead scopes. The compiler's own working state — scope
// chains, interned symbols and open code buffers — lives on the simulated
// heap; only bookkeeping integers stay in Go.
type Compiler struct {
	m        *core.Mutator
	syms     *SymTab
	literals []string
	blocks   []*blockBuf
	bufs     *bufRoots
}

// Compile parses and compiles one MiniML program. Heap exhaustion while
// compiling (the compiler's working data lives on the simulated heap)
// surfaces as the typed *core.OOMError, not a panic: the deeply recursive
// compiler allocates through the Must variants and this boundary recovers
// them — the text/template idiom for error returns across recursion.
func Compile(m *core.Mutator, src string) (prog *bytecode.Program, err error) {
	mark := m.HandleMark()
	defer m.PopHandles(mark)
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(error); ok && core.IsOOM(e) {
				prog, err = nil, e
				return
			}
			panic(r)
		}
	}()

	syms := NewSymTab(m)
	root, lits, err := Parse(m, syms, src)
	if err != nil {
		return nil, err
	}
	c := &Compiler{m: m, syms: syms, literals: lits, bufs: &bufRoots{}}
	m.Roots.Register(c.bufs)
	defer func() { c.bufs.slots = nil }()

	entry := newBlockBuf(m, c.bufs, "entry")
	c.blocks = append(c.blocks, entry)
	emptyScope := m.PushHandle(heap.FromInt(0))
	entryCtx := &funcCtx{}
	// The entry block's continuation is OpHalt, not OpReturn, so its body
	// is not in tail position: a tail call here would let the callee's
	// return end the main thread before the program halts.
	if err := c.expr(entry, emptyScope, entryCtx, root, false); err != nil {
		return nil, err
	}
	if len(entryCtx.free) > 0 {
		return nil, errf(Pos{}, "internal: entry block has free variables")
	}
	entry.emit(m, bytecode.Instr{Op: bytecode.OpHalt})

	prog = &bytecode.Program{Strings: c.literals, Entry: 0, Blocks: make([]bytecode.Block, len(c.blocks))}
	var raw []byte
	for i, b := range c.blocks {
		prog.Blocks[i], raw = b.assemble(m, raw)
	}
	return prog, nil
}

// scopeBind allocates a compile-time scope record {sym<<1|boxed, parent};
// the chain's shape matches the runtime environment chain exactly, so a
// local variable's hop count is its position in this list.
func (c *Compiler) scopeBind(scope core.Handle, sym int32, boxed bool) core.Handle {
	tag := int64(sym) << 1
	if boxed {
		tag |= 1
	}
	p := c.m.MustAlloc(heap.KindRecord, 2)
	c.m.Init(p, 0, heap.FromInt(tag))
	c.m.Init(p, 1, c.m.HandleVal(scope))
	c.m.Step(2)
	return c.m.PushHandle(p)
}

// lookupLocal walks the local scope chain for sym.
func (c *Compiler) lookupLocal(scope core.Handle, sym int32) (hops int32, boxed, ok bool) {
	v := c.m.HandleVal(scope)
	for v.IsPtr() {
		tag := c.m.Get(v, 0).Int()
		if int32(tag>>1) == sym {
			return hops, tag&1 != 0, true
		}
		v = c.m.Get(v, 1)
		hops++
	}
	return 0, false, false
}

// resolve classifies a variable occurrence: a local of the current
// function, a free variable (registered in fctx), or unbound. Free
// variables inherit the boxedness of their defining binding, found by
// walking the lexical chain of definition sites.
type varRef struct {
	free  bool
	hops  int32 // local: env hops
	idx   int   // free: closure slot
	boxed bool
}

func (c *Compiler) resolve(scope core.Handle, fctx *funcCtx, sym int32) (varRef, bool) {
	if hops, boxed, ok := c.lookupLocal(scope, sym); ok {
		return varRef{hops: hops, boxed: boxed}, true
	}
	// Search enclosing functions for the defining binding.
	f := fctx
	for f.parent != nil {
		if hops, boxed, ok := c.lookupLocal(f.parentScope, sym); ok {
			_ = hops
			idx := fctx.addFree(sym, boxed)
			return varRef{free: true, idx: idx, boxed: boxed}, true
		}
		f = f.parent
	}
	return varRef{}, false
}

// emitVar pushes the value of a resolved variable.
func (c *Compiler) emitVar(b *blockBuf, r varRef) {
	if !r.free {
		b.emit(c.m, bytecode.Instr{Op: bytecode.OpLocal, A: r.hops})
		return
	}
	b.emit(c.m, bytecode.Instr{Op: bytecode.OpFree, A: int32(r.idx)})
	if r.boxed {
		// The captured thing is the mutable environment record; its
		// value sits in payload slot 1.
		b.emit(c.m, bytecode.Instr{Op: bytecode.OpProj, A: 1})
	}
}

// emitCapture pushes the capture for one free variable of a child function,
// resolved in the parent's context: boxed bindings are captured as their
// environment record, plain bindings by value.
func (c *Compiler) emitCapture(b *blockBuf, scope core.Handle, fctx *funcCtx, fv freeVar, pos Pos) error {
	if hops, boxed, ok := c.lookupLocal(scope, fv.sym); ok {
		op := bytecode.OpLocal
		if boxed {
			op = bytecode.OpLocalRec
		}
		b.emit(c.m, bytecode.Instr{Op: op, A: hops})
		return nil
	}
	// Free in the parent as well: the parent's own capture already holds
	// the box or value in the right form.
	if _, ok := c.resolve(scope, fctx, fv.sym); !ok {
		return errf(pos, "internal: unresolvable capture %s", c.syms.Name(fv.sym))
	}
	idx := fctx.addFree(fv.sym, fv.boxed)
	b.emit(c.m, bytecode.Instr{Op: bytecode.OpFree, A: int32(idx)})
	return nil
}

// function compiles a fn body into a fresh block; returns the block index
// and the function's free variables (for the caller to capture).
func (c *Compiler) function(name string, param int32, defScope core.Handle, defCtx *funcCtx, body core.Handle) (int32, []freeVar, error) {
	m := c.m
	blk := newBlockBuf(m, c.bufs, name)
	idx := int32(len(c.blocks))
	c.blocks = append(c.blocks, blk)

	fctx := &funcCtx{parent: defCtx, parentScope: defScope}
	base := m.PushHandle(heap.FromInt(0))
	inner := c.scopeBind(base, param, false)
	if err := c.expr(blk, inner, fctx, body, true); err != nil {
		return 0, nil, err
	}
	blk.emit(m, bytecode.Instr{Op: bytecode.OpReturn})
	m.PopHandles(base)
	return idx, fctx.free, nil
}

// emitClosure compiles a fn node: child block first (collecting its free
// variables), then the captures and the closure allocation.
func (c *Compiler) emitClosure(b *blockBuf, scope core.Handle, fctx *funcCtx, name string, param int32, body core.Handle, pos Pos) error {
	blk, frees, err := c.function(name, param, scope, fctx, body)
	if err != nil {
		return err
	}
	for _, fv := range frees {
		if err := c.emitCapture(b, scope, fctx, fv, pos); err != nil {
			return err
		}
	}
	b.emit(c.m, bytecode.Instr{Op: bytecode.OpClosure, A: blk, B: int32(len(frees))})
	return nil
}

// expr compiles a node. tail is true when the expression's continuation is
// exactly a return, enabling tail calls.
func (c *Compiler) expr(b *blockBuf, scope core.Handle, fctx *funcCtx, node core.Handle, tail bool) error {
	m := c.m
	mark := m.HandleMark()
	defer m.PopHandles(mark)
	m.Step(4)

	switch tag := nodeTag(m, node); tag {
	case TagInt:
		v := kidImm(m, node, 0)
		if v > math.MaxInt32 || v < math.MinInt32 {
			return errf(nodePos(m, node), "integer literal %d out of 32-bit range", v)
		}
		b.emit(m, bytecode.Instr{Op: bytecode.OpConstInt, A: int32(v)})

	case TagBool:
		b.emit(m, bytecode.Instr{Op: bytecode.OpConstInt, A: int32(kidImm(m, node, 0))})

	case TagUnit:
		b.emit(m, bytecode.Instr{Op: bytecode.OpConstInt, A: 0})

	case TagStr:
		b.emit(m, bytecode.Instr{Op: bytecode.OpConstStr, A: int32(kidImm(m, node, 0))})

	case TagVar:
		sym := int32(kidImm(m, node, 0))
		r, ok := c.resolve(scope, fctx, sym)
		if !ok {
			return errf(nodePos(m, node), "unbound variable %s", c.syms.Name(sym))
		}
		c.emitVar(b, r)

	case TagFn:
		sym := int32(kidImm(m, node, 0))
		body := kidHandle(m, node, 1)
		return c.emitClosure(b, scope, fctx, c.syms.Name(sym), sym, body, nodePos(m, node))

	case TagApp:
		return c.app(b, scope, fctx, node, tail)

	case TagBin:
		op := int32(kidImm(m, node, 0))
		l, r := kidHandle(m, node, 1), kidHandle(m, node, 2)
		if err := c.expr(b, scope, fctx, l, false); err != nil {
			return err
		}
		if err := c.expr(b, scope, fctx, r, false); err != nil {
			return err
		}
		b.emit(m, bytecode.Instr{Op: bytecode.OpBin, A: op})

	case TagNot, TagNeg, TagRef, TagDeref:
		e := kidHandle(m, node, 0)
		if err := c.expr(b, scope, fctx, e, false); err != nil {
			return err
		}
		op := map[Tag]bytecode.Op{
			TagNot: bytecode.OpNot, TagNeg: bytecode.OpNeg,
			TagRef: bytecode.OpMkRef, TagDeref: bytecode.OpDeref,
		}[tag]
		b.emit(m, bytecode.Instr{Op: op})

	case TagAssign:
		l, r := kidHandle(m, node, 0), kidHandle(m, node, 1)
		if err := c.expr(b, scope, fctx, l, false); err != nil {
			return err
		}
		if err := c.expr(b, scope, fctx, r, false); err != nil {
			return err
		}
		b.emit(m, bytecode.Instr{Op: bytecode.OpAssign})

	case TagAndalso, TagOrelse:
		l, r := kidHandle(m, node, 0), kidHandle(m, node, 1)
		if err := c.expr(b, scope, fctx, l, false); err != nil {
			return err
		}
		j1 := b.emit(m, bytecode.Instr{Op: bytecode.OpJumpIfNot})
		if tag == TagAndalso {
			if err := c.expr(b, scope, fctx, r, false); err != nil {
				return err
			}
			j2 := b.emit(m, bytecode.Instr{Op: bytecode.OpJump})
			b.patch(m, j1, bytecode.Instr{Op: bytecode.OpJumpIfNot, A: int32(b.n)})
			b.emit(m, bytecode.Instr{Op: bytecode.OpConstInt, A: 0})
			b.patch(m, j2, bytecode.Instr{Op: bytecode.OpJump, A: int32(b.n)})
		} else {
			b.emit(m, bytecode.Instr{Op: bytecode.OpConstInt, A: 1})
			j2 := b.emit(m, bytecode.Instr{Op: bytecode.OpJump})
			b.patch(m, j1, bytecode.Instr{Op: bytecode.OpJumpIfNot, A: int32(b.n)})
			if err := c.expr(b, scope, fctx, r, false); err != nil {
				return err
			}
			b.patch(m, j2, bytecode.Instr{Op: bytecode.OpJump, A: int32(b.n)})
		}

	case TagIf:
		cond, then, els := kidHandle(m, node, 0), kidHandle(m, node, 1), kidHandle(m, node, 2)
		if err := c.expr(b, scope, fctx, cond, false); err != nil {
			return err
		}
		j1 := b.emit(m, bytecode.Instr{Op: bytecode.OpJumpIfNot})
		if err := c.expr(b, scope, fctx, then, tail); err != nil {
			return err
		}
		j2 := b.emit(m, bytecode.Instr{Op: bytecode.OpJump})
		b.patch(m, j1, bytecode.Instr{Op: bytecode.OpJumpIfNot, A: int32(b.n)})
		if err := c.expr(b, scope, fctx, els, tail); err != nil {
			return err
		}
		b.patch(m, j2, bytecode.Instr{Op: bytecode.OpJump, A: int32(b.n)})

	case TagLet:
		sym := int32(kidImm(m, node, 0))
		rhs, body := kidHandle(m, node, 1), kidHandle(m, node, 2)
		if err := c.expr(b, scope, fctx, rhs, false); err != nil {
			return err
		}
		b.emit(m, bytecode.Instr{Op: bytecode.OpBind})
		inner := c.scopeBind(scope, sym, false)
		if err := c.expr(b, inner, fctx, body, tail); err != nil {
			return err
		}
		if !tail {
			b.emit(m, bytecode.Instr{Op: bytecode.OpEnvPop, A: 1})
		}

	case TagFun:
		return c.funGroup(b, scope, fctx, node, tail)

	case TagCase:
		return c.caseExpr(b, scope, fctx, node, tail)

	case TagTuple:
		list := kidHandle(m, node, 0)
		n := 0
		if err := listIter(m, list, func(e core.Handle) error {
			n++
			return c.expr(b, scope, fctx, e, false)
		}); err != nil {
			return err
		}
		b.emit(m, bytecode.Instr{Op: bytecode.OpMkTuple, A: int32(n)})

	case TagProj:
		i := kidImm(m, node, 0)
		e := kidHandle(m, node, 1)
		if err := c.expr(b, scope, fctx, e, false); err != nil {
			return err
		}
		b.emit(m, bytecode.Instr{Op: bytecode.OpProj, A: int32(i - 1)})

	case TagList:
		list := kidHandle(m, node, 0)
		n := 0
		if err := listIter(m, list, func(e core.Handle) error {
			n++
			return c.expr(b, scope, fctx, e, false)
		}); err != nil {
			return err
		}
		b.emit(m, bytecode.Instr{Op: bytecode.OpConstInt, A: 0}) // nil
		for i := 0; i < n; i++ {
			b.emit(m, bytecode.Instr{Op: bytecode.OpBin, A: int32(bytecode.BinCons)})
		}

	case TagSeq:
		list := kidHandle(m, node, 0)
		n := listLen(m, list)
		i := 0
		if err := listIter(m, list, func(e core.Handle) error {
			i++
			last := i == n
			if err := c.expr(b, scope, fctx, e, tail && last); err != nil {
				return err
			}
			if !last {
				b.emit(m, bytecode.Instr{Op: bytecode.OpPopN, A: 1})
			}
			return nil
		}); err != nil {
			return err
		}

	default:
		return errf(nodePos(m, node), "cannot compile node tag %d", tag)
	}
	return nil
}

// app compiles an application spine: builtin call or closure call.
func (c *Compiler) app(b *blockBuf, scope core.Handle, fctx *funcCtx, node core.Handle, tail bool) error {
	m := c.m
	var args []core.Handle
	head := node
	for nodeTag(m, head) == TagApp {
		args = append(args, kidHandle(m, head, 1))
		head = kidHandle(m, head, 0)
	}
	ordered := make([]core.Handle, len(args))
	for i, a := range args {
		ordered[len(args)-1-i] = a
	}

	if nodeTag(m, head) == TagVar {
		sym := int32(kidImm(m, head, 0))
		if _, bound := c.resolve(scope, fctx, sym); !bound {
			name := c.syms.Name(sym)
			bi, ok := builtins[name]
			if !ok {
				return errf(nodePos(m, head), "unbound variable %s", name)
			}
			if len(ordered) != bi.arity {
				return errf(nodePos(m, head), "builtin %s expects %d arguments, got %d", name, bi.arity, len(ordered))
			}
			for _, a := range ordered {
				if err := c.expr(b, scope, fctx, a, false); err != nil {
					return err
				}
			}
			b.emit(m, bytecode.Instr{Op: bi.op})
			return nil
		}
	}

	if err := c.expr(b, scope, fctx, head, false); err != nil {
		return err
	}
	for i, a := range ordered {
		if err := c.expr(b, scope, fctx, a, false); err != nil {
			return err
		}
		op := bytecode.OpCall
		if tail && i == len(ordered)-1 {
			op = bytecode.OpTailCall
		}
		b.emit(m, bytecode.Instr{Op: op})
	}
	return nil
}

// funGroup compiles `fun f .. and g .. in body`: the group's bindings are
// mutable environment records (boxes); each closure captures the boxes of
// the group members it references, and each box is patched with its closure
// once allocated — a logged mutation, like any store.
func (c *Compiler) funGroup(b *blockBuf, scope core.Handle, fctx *funcCtx, node core.Handle, tail bool) error {
	m := c.m
	defs := kidHandle(m, node, 0)
	body := kidHandle(m, node, 1)
	k := listLen(m, defs)

	type defInfo struct {
		name, param int32
		body        core.Handle
	}
	infos := make([]defInfo, 0, k)
	v := m.HandleVal(defs)
	for v.IsPtr() {
		d := m.Get(v, 0)
		infos = append(infos, defInfo{
			name:  int32(m.Get(d, 2).Int()),
			param: int32(m.Get(d, 3).Int()),
			body:  m.PushHandle(m.Get(d, 4)),
		})
		v = m.Get(v, 1)
	}

	inner := scope
	for _, info := range infos {
		b.emit(m, bytecode.Instr{Op: bytecode.OpBindHole})
		inner = c.scopeBind(inner, info.name, true)
	}
	for i, info := range infos {
		if err := c.emitClosure(b, inner, fctx, c.syms.Name(info.name), info.param, info.body, nodePos(m, node)); err != nil {
			return err
		}
		b.emit(m, bytecode.Instr{Op: bytecode.OpPatch, A: int32(k - 1 - i)})
	}
	if err := c.expr(b, inner, fctx, body, tail); err != nil {
		return err
	}
	if !tail {
		b.emit(m, bytecode.Instr{Op: bytecode.OpEnvPop, A: int32(k)})
	}
	return nil
}

// failSite records a pattern-test failure point.
type failSite struct {
	instr int // index of the test instruction to patch
	depth int // pending stack values to pop on failure
	binds int // environment bindings to unwind on failure
}

// caseExpr compiles case/of with sequential alternatives. Each alternative
// duplicates the scrutinee, runs its pattern tests (failure sites jump to
// per-site unwind trampolines that pop pending stack values and bindings
// before trying the next alternative), evaluates its body, and drops the
// saved scrutinee.
func (c *Compiler) caseExpr(b *blockBuf, scope core.Handle, fctx *funcCtx, node core.Handle, tail bool) error {
	m := c.m
	scrut := kidHandle(m, node, 0)
	alts := kidHandle(m, node, 1)
	if err := c.expr(b, scope, fctx, scrut, false); err != nil {
		return err
	}

	var endJumps []int
	var pendingFails []failSite

	patchFail := func(f failSite, target int32) {
		ins := b.read(m, f.instr)
		if ins.Op == bytecode.OpTestInt || ins.Op == bytecode.OpTestTuple {
			ins.B = target
		} else {
			ins.A = target
		}
		b.patch(m, f.instr, ins)
	}
	emitTrampolines := func(fails []failSite, dest int32) []int {
		var jumps []int
		for _, f := range fails {
			patchFail(f, int32(b.n))
			if f.depth > 0 {
				b.emit(m, bytecode.Instr{Op: bytecode.OpPopN, A: int32(f.depth)})
			}
			if f.binds > 0 {
				b.emit(m, bytecode.Instr{Op: bytecode.OpEnvPop, A: int32(f.binds)})
			}
			jumps = append(jumps, b.emit(m, bytecode.Instr{Op: bytecode.OpJump, A: dest}))
		}
		return jumps
	}

	if err := listIter(m, alts, func(alt core.Handle) error {
		if len(pendingFails) > 0 {
			skip := b.emit(m, bytecode.Instr{Op: bytecode.OpJump, A: -1})
			jumps := emitTrampolines(pendingFails, -1)
			dup := int32(b.n)
			for _, j := range jumps {
				b.patch(m, j, bytecode.Instr{Op: bytecode.OpJump, A: dup})
			}
			b.patch(m, skip, bytecode.Instr{Op: bytecode.OpJump, A: dup})
			pendingFails = pendingFails[:0]
		}

		b.emit(m, bytecode.Instr{Op: bytecode.OpDup})
		pat := kidHandle(m, alt, 0)
		body := kidHandle(m, alt, 1)
		inner := scope
		binds := 0
		var fails []failSite
		var err error
		inner, binds, err = c.pattern(b, inner, pat, 0, 0, &fails)
		if err != nil {
			return err
		}
		if err := c.expr(b, inner, fctx, body, tail); err != nil {
			return err
		}
		b.emit(m, bytecode.Instr{Op: bytecode.OpSwapPop})
		if binds > 0 {
			b.emit(m, bytecode.Instr{Op: bytecode.OpEnvPop, A: int32(binds)})
		}
		endJumps = append(endJumps, b.emit(m, bytecode.Instr{Op: bytecode.OpJump, A: -1}))
		pendingFails = fails
		return nil
	}); err != nil {
		return err
	}

	// Failures of the last alternative are runtime match failures: no
	// unwinding needed, just point every site at a failing halt.
	if len(pendingFails) > 0 {
		halt := int32(b.n)
		b.emit(m, bytecode.Instr{Op: bytecode.OpHalt, A: 1})
		for _, f := range pendingFails {
			patchFail(f, halt)
		}
	}
	end := int32(b.n)
	for _, j := range endJumps {
		b.patch(m, j, bytecode.Instr{Op: bytecode.OpJump, A: end})
	}
	return nil
}

// pattern compiles one pattern match. The value under test is on top of
// the stack and is consumed. depth counts pending sibling values beneath
// it; binds counts bindings made so far in this alternative.
func (c *Compiler) pattern(b *blockBuf, scope, pat core.Handle, depth, binds int, fails *[]failSite) (core.Handle, int, error) {
	m := c.m
	switch tag := nodeTag(m, pat); tag {
	case TagPWild:
		b.emit(m, bytecode.Instr{Op: bytecode.OpPopN, A: 1})
		return scope, binds, nil

	case TagPVar:
		sym := int32(kidImm(m, pat, 0))
		b.emit(m, bytecode.Instr{Op: bytecode.OpBind})
		return c.scopeBind(scope, sym, false), binds + 1, nil

	case TagPInt, TagPBool:
		k := int32(kidImm(m, pat, 0))
		idx := b.emit(m, bytecode.Instr{Op: bytecode.OpTestInt, A: k, B: -1})
		*fails = append(*fails, failSite{instr: idx, depth: depth, binds: binds})
		return scope, binds, nil

	case TagPUnit:
		idx := b.emit(m, bytecode.Instr{Op: bytecode.OpTestInt, A: 0, B: -1})
		*fails = append(*fails, failSite{instr: idx, depth: depth, binds: binds})
		return scope, binds, nil

	case TagPNil:
		idx := b.emit(m, bytecode.Instr{Op: bytecode.OpTestNil, A: -1})
		*fails = append(*fails, failSite{instr: idx, depth: depth, binds: binds})
		return scope, binds, nil

	case TagPCons:
		idx := b.emit(m, bytecode.Instr{Op: bytecode.OpTestCons, A: -1})
		*fails = append(*fails, failSite{instr: idx, depth: depth, binds: binds})
		head := kidHandle(m, pat, 0)
		tail := kidHandle(m, pat, 1)
		var err error
		// Stack now: ... tail head; match head with tail pending.
		scope, binds, err = c.pattern(b, scope, head, depth+1, binds, fails)
		if err != nil {
			return scope, binds, err
		}
		return c.pattern(b, scope, tail, depth, binds, fails)

	case TagPTuple:
		list := kidHandle(m, pat, 0)
		n := listLen(m, list)
		idx := b.emit(m, bytecode.Instr{Op: bytecode.OpTestTuple, A: int32(n), B: -1})
		*fails = append(*fails, failSite{instr: idx, depth: depth, binds: binds})
		// Walk the sub-patterns with a pinned cursor; the scope handles the
		// sub-patterns create must outlive each iteration (listIter's
		// per-element cleanup would release them), so iterate manually.
		cur := m.PushHandle(m.HandleVal(list))
		i := 0
		var err error
		for m.HandleVal(cur).IsPtr() {
			elem := m.PushHandle(m.Get(m.HandleVal(cur), 0))
			m.SetHandleVal(cur, m.Get(m.HandleVal(cur), 1))
			scope, binds, err = c.pattern(b, scope, elem, depth+(n-1-i), binds, fails)
			if err != nil {
				return scope, binds, err
			}
			i++
		}
		return scope, binds, nil
	}
	return scope, binds, errf(nodePos(m, pat), "cannot compile pattern tag %d", nodeTag(m, pat))
}
