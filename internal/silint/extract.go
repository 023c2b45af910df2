package silint

import (
	"fmt"
	"go/ast"
	"go/constant"
	"go/token"
	"go/types"
	"path/filepath"
	"regexp"
	"strings"

	"sian/internal/model"
)

// ObjSet is the abstract object set the extractor computes for each
// transaction: a set of named objects, plus a ⊤ element standing for
// "any object" when a key could not be resolved statically. ⊤
// conservatively intersects everything, so widening only ever adds
// dependency edges to the lowered static graphs.
type ObjSet struct {
	objs map[model.Obj]bool
	// params are the parameters of a helper whose arguments supply
	// keys; only a helper's footprint has them, and each call resolves
	// them (footprint.go).
	params map[int]bool
	// Top records that the set was widened to ⊤.
	Top bool
}

func newObjSet() *ObjSet {
	return &ObjSet{objs: make(map[model.Obj]bool), params: make(map[int]bool)}
}

func (s *ObjSet) add(k key) {
	for _, x := range k.objs {
		s.objs[x] = true
	}
	for _, p := range k.params {
		s.params[p] = true
	}
	s.Top = s.Top || k.top != nil
}

// join adds the named objects and the ⊤ element of o, not its
// parameter references.
func (s *ObjSet) join(o *ObjSet) {
	for x := range o.objs {
		s.objs[x] = true
	}
	s.Top = s.Top || o.Top
}

// Objects returns the named objects of the set, sorted. When Top is
// set the named objects are still meaningful: they were resolved
// precisely and the set additionally contains every other object.
func (s *ObjSet) Objects() []model.Obj {
	out := make([]model.Obj, 0, len(s.objs))
	for x := range s.objs {
		out = append(out, x)
	}
	return model.NormalizeObjs(out)
}

// String renders e.g. "{acct1, acct2}" or "⊤∪{acct1}".
func (s *ObjSet) String() string {
	names := make([]string, 0, len(s.objs))
	for _, x := range s.Objects() {
		names = append(names, string(x))
	}
	set := "{" + strings.Join(names, ", ") + "}"
	if s.Top {
		if len(names) == 0 {
			return "⊤"
		}
		return "⊤∪" + set
	}
	return set
}

// TxKind distinguishes how a transaction span was written.
type TxKind int

// Transaction span kinds.
const (
	TxInvalid TxKind = iota
	// TxTransact is a Session.Transact/TransactNamed closure.
	TxTransact
	// TxManual is a Session.Begin … Commit/Abort span.
	TxManual
)

// Tx is one extracted transaction: the static over-approximation of
// the read and write sets of a Transact closure or manual Begin span,
// anchored at its call site.
type Tx struct {
	// Name labels the transaction in witnesses: the constant name
	// passed to TransactNamed/Begin, or a position-derived fallback.
	Name string
	// Pos is the Transact/TransactNamed/Begin call position.
	Pos token.Pos
	// Kind records the span style.
	Kind TxKind
	// Reads and Writes are the extracted abstract sets.
	Reads, Writes *ObjSet
	// InLoop marks a span whose call site is inside a loop; the
	// lowering duplicates it within its session to model repeated
	// sequential execution.
	InLoop bool
	// FixInsert is the position just after the opening brace of the
	// transaction body (when statically visible): the anchor where a
	// suggested Promote stub can be inserted textually.
	FixInsert token.Pos
	// Handle is the name of the body's transaction parameter, for
	// rendering suggested-fix stubs.
	Handle string
	// WidenSites are the positions whose key (or handle) resolution
	// widened a set to ⊤ — the places a silint:obj annotation would
	// restore precision: the operation using the key, inside a helper
	// if that is where it is computed, or the helper call passing it.
	WidenSites []token.Pos
}

// Session is an ordered list of transactions extracted for one session
// identity (a session variable, or a single call site when the
// receiver expression has no stable identity).
type Session struct {
	// Name is a display name (the receiver variable, usually).
	Name string
	// Txs in syntactic order, which over-approximates session order.
	Txs []*Tx
	// MultiInstance marks a session that may be instantiated more than
	// once at run time (any session not rooted in a local variable of
	// func main). The analyses still treat it as a single instance —
	// the library convention is that self-concurrent transactions are
	// listed in two sessions — but extraction emits a note so the
	// assumption is visible.
	MultiInstance bool
}

// annotationRE is the escape-hatch comment: silint:obj=a or
// silint:obj=a,b at the end of the call's line, or alone on the line
// above, asserts the set of objects a key expression may denote.
var annotationRE = regexp.MustCompile(`silint:obj=([^\s]+)`)

// extractor walks one package and produces its sessions.
type extractor struct {
	pkg *Package

	// prepass state
	annots    map[string]map[int][]model.Obj // filename → line → asserted objects
	assigns   map[types.Object]int
	assignRHS map[types.Object]ast.Expr
	addrTaken map[types.Object]bool
	loopRange []posRange

	// walk state
	sessions     []*Session
	sessionByObj map[types.Object]*Session
	manual       map[types.Object]*Tx   // current binding, for Read/Write dispatch
	manualAll    map[types.Object][]*Tx // every tx ever bound, for escape widening
	okIdent      map[*ast.Ident]bool
	beginDone    map[*ast.CallExpr]bool
	inMain       bool
	fnName       string

	// footprint state (footprint.go)
	summaries   map[sumKey]*footprint
	summarizing map[*types.Func]bool
	goCalls     map[*ast.CallExpr]bool // calls that are `go` statements

	notes     []string
	widenings int
}

type posRange struct{ from, to token.Pos }

func newExtractor(pkg *Package) *extractor {
	return &extractor{
		pkg:          pkg,
		annots:       make(map[string]map[int][]model.Obj),
		assigns:      make(map[types.Object]int),
		assignRHS:    make(map[types.Object]ast.Expr),
		addrTaken:    make(map[types.Object]bool),
		sessionByObj: make(map[types.Object]*Session),
		manual:       make(map[types.Object]*Tx),
		manualAll:    make(map[types.Object][]*Tx),
		okIdent:      make(map[*ast.Ident]bool),
		beginDone:    make(map[*ast.CallExpr]bool),
		summaries:    make(map[sumKey]*footprint),
		summarizing:  make(map[*types.Func]bool),
		goCalls:      make(map[*ast.CallExpr]bool),
	}
}

// extract runs the full extraction for the package.
func (e *extractor) extract() {
	e.prepass()
	for _, f := range e.pkg.Files {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			e.inMain = e.pkg.Types.Name() == "main" && fd.Recv == nil && fd.Name.Name == "main"
			e.fnName = fd.Name.Name
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				switch s := n.(type) {
				case *ast.AssignStmt:
					e.handleAssign(s)
				case *ast.ValueSpec:
					e.handleValueSpec(s)
				case *ast.ExprStmt:
					e.handleBareBegin(s)
				case *ast.CallExpr:
					e.handleCall(s)
				}
				return true
			})
			e.checkManualEscapes(fd)
		}
	}
	for _, s := range e.sessions {
		if s.MultiInstance && len(s.Txs) > 0 {
			e.note(s.Txs[0].Pos, "session %s is declared outside func main and may be instantiated more than once; the analysis assumes a single instance (model self-concurrency by running the code under a second, distinct session)", s.Name)
		}
	}
}

// prepass collects annotations, per-object assignment counts and
// right-hand sides (for constant propagation), address-taking, and
// loop body ranges.
func (e *extractor) prepass() {
	for _, f := range e.pkg.Files {
		tf := e.pkg.Fset.File(f.Pos())
		code := make(map[int]bool) // lines holding a token that is not a comment
		ast.Inspect(f, func(n ast.Node) bool {
			if _, isComment := n.(*ast.CommentGroup); n == nil || isComment {
				return false
			}
			if n.Pos().IsValid() && n.End() > n.Pos() {
				code[tf.Position(n.Pos()).Line], code[tf.Position(n.End()-1).Line] = true, true
			}
			switch s := n.(type) {
			case *ast.AssignStmt:
				aligned := len(s.Lhs) == len(s.Rhs)
				for i, lhs := range s.Lhs {
					id, ok := lhs.(*ast.Ident)
					if !ok {
						continue
					}
					obj := e.objectOf(id)
					if obj == nil {
						continue
					}
					e.assigns[obj]++
					if aligned && e.assigns[obj] == 1 {
						e.assignRHS[obj] = s.Rhs[i]
					} else {
						delete(e.assignRHS, obj)
					}
				}
			case *ast.ValueSpec:
				aligned := len(s.Names) == len(s.Values)
				for i, id := range s.Names {
					if len(s.Values) == 0 {
						continue // zero-value declaration; a later assignment may still be single
					}
					obj := e.objectOf(id)
					if obj == nil {
						continue
					}
					e.assigns[obj]++
					if aligned && e.assigns[obj] == 1 {
						e.assignRHS[obj] = s.Values[i]
					} else {
						delete(e.assignRHS, obj)
					}
				}
			case *ast.IncDecStmt:
				if id, ok := s.X.(*ast.Ident); ok {
					if obj := e.objectOf(id); obj != nil {
						e.assigns[obj]++
						delete(e.assignRHS, obj)
					}
				}
			case *ast.RangeStmt:
				for _, x := range []ast.Expr{s.Key, s.Value} {
					if id, ok := x.(*ast.Ident); ok {
						if obj := e.objectOf(id); obj != nil {
							e.assigns[obj] += 2 // reassigned every iteration
							delete(e.assignRHS, obj)
						}
					}
				}
				e.loopRange = append(e.loopRange, posRange{s.Body.Pos(), s.Body.End()})
			case *ast.ForStmt:
				e.loopRange = append(e.loopRange, posRange{s.Body.Pos(), s.Body.End()})
			case *ast.GoStmt:
				e.goCalls[s.Call] = true
			case *ast.UnaryExpr:
				if s.Op == token.AND {
					if id, ok := unparen(s.X).(*ast.Ident); ok {
						if obj := e.objectOf(id); obj != nil {
							e.addrTaken[obj] = true
						}
					}
				}
			}
			return true
		})
		e.collectAnnotations(f, tf, code)
	}
}

// collectAnnotations records the silint:obj annotations of f by the
// line they cover: a comment after code covers its own line only, and
// one alone on its line also covers the line below, unless that line
// carries its own.
func (e *extractor) collectAnnotations(f *ast.File, tf *token.File, code map[int]bool) {
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			m := annotationRE.FindStringSubmatch(c.Text)
			if m == nil {
				continue
			}
			var objs []model.Obj
			for _, name := range strings.Split(m[1], ",") {
				if name = strings.TrimSpace(name); name != "" {
					objs = append(objs, model.Obj(name))
				}
			}
			p := tf.Position(c.Slash)
			lines := e.annots[p.Filename]
			if lines == nil {
				lines = make(map[int][]model.Obj)
				e.annots[p.Filename] = lines
			}
			line := p.Line
			lines[line] = objs
			if _, own := lines[line+1]; !code[line] && !own {
				lines[line+1] = objs
			}
		}
	}
}

func (e *extractor) objectOf(id *ast.Ident) types.Object {
	if obj := e.pkg.Info.Defs[id]; obj != nil {
		return obj
	}
	return e.pkg.Info.Uses[id]
}

func (e *extractor) inLoop(pos token.Pos) bool {
	for _, r := range e.loopRange {
		if pos >= r.from && pos < r.to {
			return true
		}
	}
	return false
}

func unparen(x ast.Expr) ast.Expr {
	for {
		p, ok := x.(*ast.ParenExpr)
		if !ok {
			return x
		}
		x = p.X
	}
}

// isEngineNamed reports whether t is (a pointer to) the named engine
// type, matched through the sian facade's aliases.
func isEngineNamed(t types.Type, name string) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil || obj.Name() != name {
		return false
	}
	path := obj.Pkg().Path()
	return path == "sian/internal/engine" || strings.HasSuffix(path, "/internal/engine")
}

// sessionCall resolves call to (receiver expression, method name) when
// it is a method call on an engine Session.
func (e *extractor) sessionCall(call *ast.CallExpr) (recv ast.Expr, method string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return nil, "", false
	}
	selInfo := e.pkg.Info.Selections[sel]
	if selInfo == nil || selInfo.Kind() != types.MethodVal || !isEngineNamed(selInfo.Recv(), "Session") {
		return nil, "", false
	}
	return sel.X, sel.Sel.Name, true
}

// beginCall recognises x as a Session.Begin call and returns its
// receiver expression.
func (e *extractor) beginCall(x ast.Expr) (recv ast.Expr, call *ast.CallExpr, ok bool) {
	call, isCall := unparen(x).(*ast.CallExpr)
	if !isCall {
		return nil, nil, false
	}
	recv, method, ok := e.sessionCall(call)
	if !ok || method != "Begin" {
		return nil, nil, false
	}
	return recv, call, true
}

// handleAssign registers manual transactions: tx, err := sess.Begin(…).
func (e *extractor) handleAssign(s *ast.AssignStmt) {
	if len(s.Rhs) != 1 {
		return
	}
	recv, call, ok := e.beginCall(s.Rhs[0])
	if !ok {
		return
	}
	e.bindBegin(s.Lhs, recv, call)
}

// handleValueSpec registers manual transactions declared with var:
// var tx, err = sess.Begin(…).
func (e *extractor) handleValueSpec(s *ast.ValueSpec) {
	if len(s.Values) != 1 {
		return
	}
	recv, call, ok := e.beginCall(s.Values[0])
	if !ok {
		return
	}
	lhs := make([]ast.Expr, len(s.Names))
	for i, id := range s.Names {
		lhs[i] = id
	}
	e.bindBegin(lhs, recv, call)
}

// handleBareBegin recognises a Begin used as a bare expression
// statement: both results are discarded, so the span can never perform
// a read or write and soundly keeps empty sets.
func (e *extractor) handleBareBegin(s *ast.ExprStmt) {
	recv, call, ok := e.beginCall(s.X)
	if !ok {
		return
	}
	e.beginDone[call] = true
	e.beginTx(recv, call)
}

// bindBegin registers the manual transaction produced by a Begin call
// whose results are bound to lhs. A handle bound to a plain variable
// is tracked precisely; one discarded via _ keeps empty sets; anything
// else (a field, a map entry, an unresolved name) escapes the
// abstraction and is widened to ⊤.
func (e *extractor) bindBegin(lhs []ast.Expr, recv ast.Expr, call *ast.CallExpr) {
	e.beginDone[call] = true
	tx := e.beginTx(recv, call)
	if len(lhs) == 0 {
		return
	}
	id, isIdent := unparen(lhs[0]).(*ast.Ident)
	if isIdent && id.Name == "_" {
		return // handle discarded: the span cannot read or write
	}
	var obj types.Object
	if isIdent {
		obj = e.objectOf(id)
	}
	if obj == nil {
		e.widen(tx, call.Pos(), "Begin result is not bound to a plain variable")
		return
	}
	// Rebinding the variable is not an escape of the previous handle.
	e.okIdent[id] = true
	e.manual[obj] = tx
	e.manualAll[obj] = append(e.manualAll[obj], tx)
}

// beginTx creates the manual transaction for a Begin call and appends
// it to the receiver's session.
func (e *extractor) beginTx(recv ast.Expr, call *ast.CallExpr) *Tx {
	name := ""
	if len(call.Args) > 0 {
		name = e.constString(call.Args[0])
	}
	tx := &Tx{
		Name:   e.txName(name, call),
		Pos:    call.Pos(),
		Kind:   TxManual,
		Reads:  newObjSet(),
		Writes: newObjSet(),
		InLoop: e.inLoop(call.Pos()),
	}
	e.sessionFor(recv, call).Txs = append(e.sessionFor(recv, call).Txs, tx)
	return tx
}

// handleCall dispatches Transact/TransactNamed/Begin on sessions,
// Read/Write/Promote/Commit/Abort on tracked manual transactions, and
// helper calls passing a tracked manual handle.
func (e *extractor) handleCall(call *ast.CallExpr) {
	if recv, method, ok := e.sessionCall(call); ok {
		switch method {
		case "Transact":
			if len(call.Args) == 1 {
				e.handleTransact(call, recv, "", call.Args[0])
			}
		case "TransactNamed":
			if len(call.Args) == 2 {
				e.handleTransact(call, recv, e.constString(call.Args[0]), call.Args[1])
			}
		case "Begin":
			if !e.beginDone[call] {
				// Begin whose result is consumed by anything other than
				// a plain variable binding or a bare expression
				// statement — returned to a caller, passed to a helper,
				// stored through a field — hands the handle to code we
				// cannot see; only ⊤ is sound for its sets.
				e.beginDone[call] = true
				tx := e.beginTx(recv, call)
				e.widen(tx, call.Pos(), "Begin result escapes (not bound to a plain variable)")
			}
		}
		return
	}
	if o, isOp := decodeOp(call); isOp {
		if tx, tracked := e.manual[e.pkg.Info.Uses[o.handle]]; tracked {
			e.okIdent[o.handle] = true
			if o.key != nil {
				fp := newFootprint()
				fp.add(e.resolve(o.key, call, nil, true), o.read, o.write)
				e.flush(tx, fp)
			}
			return
		}
	}
	e.applyHelperCall(call)
}

// handleTransact extracts one Transact/TransactNamed call: the closure
// (or same-package named handler) is a helper with no key parameters,
// and its footprint is written into the transaction.
func (e *extractor) handleTransact(call *ast.CallExpr, recv ast.Expr, name string, fnArg ast.Expr) {
	tx := &Tx{
		Name:   e.txName(name, call),
		Pos:    call.Pos(),
		Kind:   TxTransact,
		Reads:  newObjSet(),
		Writes: newObjSet(),
		InLoop: e.inLoop(call.Pos()),
	}
	sess := e.sessionFor(recv, call)
	sess.Txs = append(sess.Txs, tx)

	var fn *types.Func
	var ft *ast.FuncType
	var body *ast.BlockStmt
	if lit, isLit := unparen(fnArg).(*ast.FuncLit); isLit {
		ft, body = lit.Type, lit.Body
	} else if f, fd := e.funcDeclFor(fnArg); fd != nil && fd.Body != nil {
		fn, ft, body = f, fd.Type, fd.Body
	}
	if body == nil {
		e.widen(tx, call.Pos(), "transaction body is not statically visible")
		return
	}
	tx.FixInsert = body.Lbrace + 1
	if params, _ := e.flatParams(ft); len(params) > 0 && params[0] != nil {
		tx.Handle = params[0].Name()
	}
	e.flush(tx, e.summarize(fn, ft, body, 0, 0))
}

// funcDeclFor resolves an expression used as a Transact handler or
// called with a transaction handle to a same-package top-level
// function declaration.
func (e *extractor) funcDeclFor(x ast.Expr) (*types.Func, *ast.FuncDecl) {
	var obj types.Object
	switch f := unparen(x).(type) {
	case *ast.Ident:
		obj = e.pkg.Info.Uses[f]
	case *ast.SelectorExpr:
		obj = e.pkg.Info.Uses[f.Sel]
	}
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() != e.pkg.Types {
		return nil, nil
	}
	for _, file := range e.pkg.Files {
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if ok && fd.Recv == nil && e.pkg.Info.Defs[fd.Name] == obj {
				return fn, fd
			}
		}
	}
	return nil, nil
}

// checkManualEscapes widens manual transactions whose handle is used
// outside the recognised Read/Write/Commit/Abort receivers.
func (e *extractor) checkManualEscapes(fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		id, isIdent := n.(*ast.Ident)
		if !isIdent || e.okIdent[id] {
			return true
		}
		obj := e.pkg.Info.Uses[id]
		if obj == nil {
			return true
		}
		// The variable may have been rebound across several Begin
		// calls and the escaping use could refer to any of the bound
		// handles, so every one of them is widened.
		for _, tx := range e.manualAll[obj] {
			e.widen(tx, id.Pos(), fmt.Sprintf("transaction handle %s escapes", id.Name))
		}
		return true
	})
}

// widen moves both sets of the transaction to ⊤ (recorded once).
func (e *extractor) widen(tx *Tx, pos token.Pos, why string) {
	if tx.Reads.Top && tx.Writes.Top {
		return
	}
	tx.Reads.Top = true
	tx.Writes.Top = true
	tx.WidenSites = append(tx.WidenSites, pos)
	e.widenings++
	e.note(pos, "%s: read/write sets widened to ⊤", why)
}

func (e *extractor) note(pos token.Pos, format string, args ...any) {
	e.notes = append(e.notes, fmt.Sprintf("%s: %s", e.position(pos), fmt.Sprintf(format, args...)))
}

func (e *extractor) position(pos token.Pos) string {
	p := e.pkg.Fset.Position(pos)
	return fmt.Sprintf("%s:%d:%d", filepath.Base(p.Filename), p.Line, p.Column)
}

// txName derives the transaction label: the constant name argument
// when available, a position fallback otherwise.
func (e *extractor) txName(name string, call *ast.CallExpr) string {
	if name != "" {
		return name
	}
	return "tx@" + e.position(call.Pos())
}

// constString evaluates x as a compile-time string constant ("" when
// it is not one).
func (e *extractor) constString(x ast.Expr) string {
	tv, ok := e.pkg.Info.Types[x]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return ""
	}
	return constant.StringVal(tv.Value)
}

// annotationAt returns the objects a silint:obj annotation covering
// pos's line asserts.
func (e *extractor) annotationAt(pos token.Pos) ([]model.Obj, bool) {
	p := e.pkg.Fset.Position(pos)
	objs, ok := e.annots[p.Filename][p.Line]
	return objs, ok
}

// exprText renders a short source-like description of an expression.
func exprText(x ast.Expr) string {
	switch v := unparen(x).(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return exprText(v.X) + "." + v.Sel.Name
	case *ast.CallExpr:
		return exprText(v.Fun) + "(…)"
	case *ast.BasicLit:
		return v.Value
	case *ast.IndexExpr:
		return exprText(v.X) + "[…]"
	default:
		return fmt.Sprintf("<%T>", x)
	}
}

// sessionFor returns the session for a Transact/Begin receiver
// expression: calls through the same never-reassigned plain variable
// share a session (giving session order between their transactions);
// anything else — including struct fields, whose types.Var is shared
// across instances — gets a fresh per-call-site session, which
// conservatively treats the transactions as concurrent.
func (e *extractor) sessionFor(recv ast.Expr, call *ast.CallExpr) *Session {
	recv = unparen(recv)
	var obj types.Object
	name := exprText(recv)
	if !e.inMain && e.fnName != "" {
		// Qualify by function so sessions of different helpers do not
		// share a display name (e.g. "TransferChopped.s").
		name = e.fnName + "." + name
	}
	multi := !e.inMain
	switch r := recv.(type) {
	case *ast.Ident:
		obj = e.pkg.Info.Uses[r]
		if vr, ok := obj.(*types.Var); ok && e.assigns[vr] <= 1 && !e.addrTaken[vr] {
			if e.inLoop(vr.Pos()) {
				// A session created per loop iteration is many sessions.
				multi = true
			}
			if s, found := e.sessionByObj[obj]; found {
				if multi {
					s.MultiInstance = true
				}
				return s
			}
			s := &Session{Name: name, MultiInstance: multi}
			e.sessionByObj[obj] = s
			e.sessions = append(e.sessions, s)
			return s
		}
		if obj != nil {
			e.note(call.Pos(), "session %s has no stable identity (reassigned or aliased); treating this call site as its own session — chopping conclusions may be incomplete", name)
		}
	case *ast.SelectorExpr:
		// A field receiver (x.sess) resolves to the field's types.Var —
		// one object shared by every instance of the struct — so calls
		// through different instances would merge into a single session
		// and fabricate session order between genuinely concurrent
		// transactions. A field is therefore never a stable identity.
		e.note(call.Pos(), "session %s is reached through a field and may denote a different instance at each call site; treating this call site as its own session — chopping conclusions may be incomplete", name)
	}
	s := &Session{Name: name + "@" + e.position(call.Pos()), MultiInstance: multi}
	e.sessions = append(e.sessions, s)
	return s
}
