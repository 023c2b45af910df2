package silint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"

	"sian/internal/model"
)

// Footprints: what a function body does through one transaction
// handle, computed by one walk.
//
// Every transaction body is analysed as a helper. A Transact closure
// or named handler is a helper with no key parameters; a function the
// handle is passed to is a helper whose keys may come from its
// parameters. summarize walks a body once and computes its footprint:
// the keys read and written through the handle, as named objects,
// references to the body's own parameters, or ⊤. A helper call inside
// the body instantiates the helper's (cached) footprint there,
// resolving each parameter reference against the call's argument with
// the caller's constant propagation. flush then writes a transaction
// body's footprint into its Tx at the Transact call; a manual span's
// operations and helper calls reach their Tx through flush as well.
// Recursion, nesting deeper than maxHelperDepth, callees that are not
// visible, `go` statements and any other use of the handle (storing
// it, aliasing it, method values) escape: only ⊤ is sound for both
// sets.

// maxHelperDepth bounds footprint composition: a chain of more than
// this many nested helper calls escapes (soundly) instead of recursing
// further.
const maxHelperDepth = 6

// footprint is the effect of one function body on one transaction
// handle.
type footprint struct {
	reads, writes *ObjSet
	// tops are the body's unresolved keys in walk order, each at the
	// site a silint:obj annotation would narrow: the operation inside
	// whichever body holds the key, or the helper call passing it.
	tops []widening
	// escape records that the handle escapes the body or a helper it
	// calls; a set is then ⊤ whatever else the footprint says.
	escape *widening
}

// widening is one ⊤ event: its site and its note.
type widening struct {
	pos token.Pos
	why string
}

// key is one resolved object key: named objects, a parameter of the
// enclosing helper whose argument supplies it, or ⊤.
type key struct {
	objs   []model.Obj
	params []int
	top    *widening
}

func newFootprint() *footprint { return &footprint{reads: newObjSet(), writes: newObjSet()} }

// add records a key in the read and/or write set.
func (fp *footprint) add(k key, read, write bool) {
	if read {
		fp.reads.add(k)
	}
	if write {
		fp.writes.add(k)
	}
	if k.top != nil {
		fp.tops = append(fp.tops, *k.top)
	}
}

// escapeAt records the first escape of the handle.
func (fp *footprint) escapeAt(pos token.Pos, why string) {
	if fp.escape == nil {
		fp.escape = &widening{pos, why}
	}
}

// sumKey caches helper footprints per (function, handle parameter).
type sumKey struct {
	fn    *types.Func
	txIdx int
}

// op is one decoded operation on a transaction handle.
type op struct {
	handle      *ast.Ident
	key         ast.Expr // nil for Commit and Abort
	read, write bool
}

// decodeOp decodes call as an operation on a handle held in a plain
// variable: h.Read(k), h.Write(k, v), h.Promote(k) (a read and a
// write of k), h.Commit() or h.Abort(). The caller decides whether h
// is the handle it tracks.
func decodeOp(call *ast.CallExpr) (op, bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return op{}, false
	}
	h, isIdent := unparen(sel.X).(*ast.Ident)
	if !isIdent {
		return op{}, false
	}
	o := op{handle: h}
	arity := 1
	switch sel.Sel.Name {
	case "Read":
		o.read = true
	case "Write":
		o.write, arity = true, 2
	case "Promote":
		o.read, o.write = true, true
	case "Commit", "Abort":
		return o, true
	default:
		return op{}, false
	}
	if len(call.Args) != arity {
		return op{}, false
	}
	o.key = call.Args[0]
	return o, true
}

// flatParams returns the flat parameter objects of a function type
// (one entry per declared name, nil for blank or unnamed), plus whether
// the final parameter is variadic.
func (e *extractor) flatParams(ft *ast.FuncType) (objs []types.Object, variadic bool) {
	if ft.Params == nil {
		return nil, false
	}
	fields := ft.Params.List
	for fi, f := range fields {
		if _, ok := f.Type.(*ast.Ellipsis); ok && fi == len(fields)-1 {
			variadic = true
		}
		if len(f.Names) == 0 {
			objs = append(objs, nil) // unnamed parameter occupies one slot
			continue
		}
		for _, name := range f.Names {
			if name.Name == "_" {
				objs = append(objs, nil)
				continue
			}
			objs = append(objs, e.pkg.Info.Defs[name])
		}
	}
	return objs, variadic
}

// summarize computes the footprint of body — of the function fn (nil
// for a closure) with type ft — with respect to its txIdx-th
// parameter. depth counts helper calls from the transaction body,
// which is depth 0; beyond maxHelperDepth the footprint escapes.
// Helper footprints are cached.
func (e *extractor) summarize(fn *types.Func, ft *ast.FuncType, body *ast.BlockStmt, txIdx, depth int) *footprint {
	ck := sumKey{fn, txIdx}
	if fp, cached := e.summaries[ck]; cached && depth > 0 {
		return fp
	}
	fp := newFootprint()
	if fn != nil && e.summarizing[fn] {
		fp.escapeAt(token.NoPos, fmt.Sprintf("helper %s is recursive", fn.Name()))
		return fp
	}
	if depth > maxHelperDepth {
		fp.escapeAt(token.NoPos, fmt.Sprintf("helper call depth exceeds %d at %s", maxHelperDepth, fn.Name()))
		return fp
	}
	if fn != nil {
		e.summarizing[fn] = true
		defer delete(e.summarizing, fn)
	}
	if depth > 0 {
		defer func() { e.summaries[ck] = fp }()
	}

	params, _ := e.flatParams(ft)
	if txIdx >= len(params) || params[txIdx] == nil {
		// The handle binds to a blank or unnamed parameter: the body
		// cannot touch it.
		return fp
	}
	txObj := params[txIdx]
	paramIdx := make(map[types.Object]int, len(params))
	for i, p := range params {
		if p != nil {
			paramIdx[p] = i
		}
	}

	ok := make(map[*ast.Ident]bool)
	ast.Inspect(body, func(n ast.Node) bool {
		call, isCall := n.(*ast.CallExpr)
		if !isCall {
			return true
		}
		if o, isOp := decodeOp(call); isOp && e.pkg.Info.Uses[o.handle] == txObj {
			ok[o.handle] = true
			if o.key != nil {
				fp.add(e.resolve(o.key, call, paramIdx, true), o.read, o.write)
			}
			return true
		}
		// `go` hands the handle to concurrent code that may outlive
		// the transaction: the unmarked use escapes below.
		if e.goCalls[call] {
			return true
		}
		for ai, arg := range call.Args {
			if id, isIdent := unparen(arg).(*ast.Ident); isIdent && e.pkg.Info.Uses[id] == txObj &&
				e.callHelper(fp, call, ai, paramIdx, depth+1) {
				ok[id] = true
			}
		}
		return true
	})
	ast.Inspect(body, func(n ast.Node) bool {
		id, isIdent := n.(*ast.Ident)
		if !isIdent || ok[id] || e.pkg.Info.Uses[id] != txObj {
			return true
		}
		why := fmt.Sprintf("transaction handle %s escapes the closure", id.Name)
		if depth > 0 {
			why = fmt.Sprintf("transaction handle %s escapes helper %s (%s)", id.Name, fn.Name(), e.position(id.Pos()))
		}
		fp.escapeAt(id.Pos(), why)
		return false
	})
	return fp
}

// callHelper instantiates into fp, at call, the footprint of the
// helper that call passes the handle to as argument ai. Named objects
// and ⊤ sites carry over; each parameter reference resolves against
// the call's argument, where a silint:obj comment on the call narrows
// a key that would otherwise be ⊤. A key parameter always has its
// argument: it is never variadic (a variadic parameter is a slice, not
// a key), and a handle passed through a multi-value call is refused
// here. An escaping helper contributes only its escape, at the call.
// callHelper reports false when the callee cannot be summarised; the
// handle use then escapes.
func (e *extractor) callHelper(fp *footprint, call *ast.CallExpr, ai int, params map[types.Object]int, depth int) bool {
	fn, fd := e.funcDeclFor(call.Fun)
	if fd == nil || fd.Body == nil {
		return false
	}
	if ps, variadic := e.flatParams(fd.Type); ai >= len(ps) || variadic && ai == len(ps)-1 {
		return false // handle spread into the variadic slot, or f(g()) style
	}
	callee := e.summarize(fn, fd.Type, fd.Body, ai, depth)
	if callee.escape != nil {
		fp.escapeAt(call.Pos(), callee.escape.why)
		return true
	}
	fp.tops = append(fp.tops, callee.tops...)
	fp.reads.join(callee.reads)
	fp.writes.join(callee.writes)
	for p, arg := range call.Args {
		read, write := callee.reads.params[p], callee.writes.params[p]
		if read || write {
			fp.add(e.resolve(arg, call, params, false), read, write)
		}
	}
	return true
}

// resolve resolves the object key arg of call inside a function whose
// parameters are params (nil outside a helper). The first rule that
// applies decides: a silint:obj annotation on the call (see
// annotationAt); a compile-time constant (go/types folds constant
// expressions, conversions of constants to model.Obj included); a
// single-assignment local, by its right-hand side; a conversion, by
// its operand; a reference to a never-reassigned parameter, resolved
// later at each call. Everything else — loop variables, reassigned
// or address-taken variables, computed keys — is ⊤, with call as the
// site an annotation would narrow. An operation (atOp) has one key, so
// its annotation decides first; a helper call may pass several, so
// there the annotation only narrows a key that would otherwise be ⊤
// and never replaces one the call passes resolvably.
func (e *extractor) resolve(arg ast.Expr, call *ast.CallExpr, params map[types.Object]int, atOp bool) key {
	annot, annotated := e.annotationAt(call.Pos())
	if annotated && atOp {
		return key{objs: annot}
	}
	visited := make(map[types.Object]bool)
	for x := arg; x != nil; {
		x = unparen(x)
		if s := e.constString(x); s != "" {
			return key{objs: []model.Obj{model.Obj(s)}}
		}
		var next ast.Expr
		switch v := x.(type) {
		case *ast.Ident:
			vr, isVar := e.pkg.Info.Uses[v].(*types.Var)
			if !isVar || visited[vr] || e.addrTaken[vr] {
				break
			}
			if pi, isParam := params[vr]; isParam {
				if e.assigns[vr] == 0 {
					return key{params: []int{pi}}
				}
			} else if e.assigns[vr] == 1 {
				visited[vr] = true
				next = e.assignRHS[vr]
			}
		case *ast.CallExpr:
			if tv, ok := e.pkg.Info.Types[v.Fun]; ok && tv.IsType() && len(v.Args) == 1 {
				next = v.Args[0]
			}
		}
		x = next
	}
	if annotated {
		return key{objs: annot}
	}
	return key{top: &widening{call.Pos(), fmt.Sprintf(
		"object key %s is not a resolvable constant: widened to ⊤ (annotate with // silint:obj=<name> to assert the key)", exprText(arg))}}
}

// flush writes a footprint into tx: a transaction body's at its
// Transact call, or one operation or helper call of a manual span.
// Each ⊤ site gets one note, one widening and one WidenSites entry per
// transaction; an escape widens both sets.
func (e *extractor) flush(tx *Tx, fp *footprint) {
	for _, w := range fp.tops {
		if slices.Contains(tx.WidenSites, w.pos) {
			continue
		}
		tx.WidenSites = append(tx.WidenSites, w.pos)
		e.widenings++
		e.note(w.pos, "%s", w.why)
	}
	tx.Reads.join(fp.reads)
	tx.Writes.join(fp.writes)
	if fp.escape != nil {
		e.widen(tx, fp.escape.pos, fp.escape.why)
	}
}

// applyHelperCall instantiates, at a plain call passing tracked manual
// handles, the called helper's footprint into each handle's current
// span; a handle whose helper cannot be summarised is left to the
// escape check.
func (e *extractor) applyHelperCall(call *ast.CallExpr) {
	if e.goCalls[call] {
		return // the goroutine may outlive the span: escape
	}
	for ai, arg := range call.Args {
		id, isIdent := unparen(arg).(*ast.Ident)
		if !isIdent {
			continue
		}
		tx, tracked := e.manual[e.pkg.Info.Uses[id]]
		if !tracked {
			continue
		}
		fp := newFootprint()
		if e.callHelper(fp, call, ai, nil, 1) {
			e.okIdent[id] = true
			e.flush(tx, fp)
		}
	}
}
