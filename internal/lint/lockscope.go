package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// lockscope enforces the discipline PR 1 built the sharded pool around:
// CryptoNight work (hashing, grinding, hasher checkout) and blocking
// operations (channel sends/receives, time.Sleep, network reads/writes)
// must never run while a sync.Mutex or sync.RWMutex is held, and every
// Lock()/RLock() must be released on all return paths of the function
// that took it.
//
// The analysis is intra-procedural and keys held locks by their receiver
// expression text; a lock handed across a function boundary (the
// *Locked-suffix helper convention) is the caller's responsibility and
// stays visible at the caller's call site.
func lockscope() *Analyzer {
	return &Analyzer{
		Name: "lockscope",
		Doc:  "no CryptoNight or blocking ops under a mutex; every Lock has an Unlock on all return paths",
		run:  runLockscope,
	}
}

// lockInfo is one held mutex: the expression it was locked through, the
// flavor, and whether a defer already guarantees release at exit.
type lockInfo struct {
	key      string
	rlock    bool
	pos      token.Pos
	deferred bool
}

type lockScanner struct {
	prog     *Program
	pkg      *Package
	netConn  *types.Interface
	findings []Finding
	reported map[token.Pos]bool
}

func runLockscope(prog *Program) []Finding {
	sc := &lockScanner{prog: prog, reported: map[token.Pos]bool{}}
	if netPkg := prog.depPackage("net"); netPkg != nil {
		if obj := netPkg.Scope().Lookup("Conn"); obj != nil {
			if iface, ok := obj.Type().Underlying().(*types.Interface); ok {
				sc.netConn = iface
			}
		}
	}
	for _, pkg := range prog.Packages {
		sc.pkg = pkg
		for _, file := range pkg.files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				held, _ := sc.scanBlock(fn.Body.List, nil)
				for _, l := range held {
					if !l.deferred {
						sc.report(l.pos, "%s.Lock() is not released on every path through %s",
							l.key, fn.Name.Name)
					}
				}
			}
		}
	}
	return sc.findings
}

func (sc *lockScanner) report(pos token.Pos, format string, args ...interface{}) {
	if sc.reported[pos] {
		return
	}
	sc.reported[pos] = true
	sc.findings = append(sc.findings, finding("lockscope", sc.prog.fset.Position(pos), format, args...))
}

// scanBlock walks one statement list in source order, threading the set
// of held locks through and recursing into control flow with branch-local
// copies. It returns the lock state after the list and whether the list
// always terminates (ends in return).
func (sc *lockScanner) scanBlock(stmts []ast.Stmt, held []lockInfo) ([]lockInfo, bool) {
	for _, stmt := range stmts {
		var terminated bool
		held, terminated = sc.scanStmt(stmt, held)
		if terminated {
			return held, true
		}
	}
	return held, false
}

func copyLocks(held []lockInfo) []lockInfo {
	return append([]lockInfo(nil), held...)
}

// mergeLocks unions the lock states reachable after a branch point: a
// lock held on any incoming path counts as held, so later banned calls
// are still flagged.
func mergeLocks(states [][]lockInfo) []lockInfo {
	var out []lockInfo
	seen := map[string]bool{}
	for _, st := range states {
		for _, l := range st {
			k := l.key
			if l.rlock {
				k += "\x00r"
			}
			if !seen[k] {
				seen[k] = true
				out = append(out, l)
			}
		}
	}
	return out
}

func (sc *lockScanner) scanStmt(stmt ast.Stmt, held []lockInfo) ([]lockInfo, bool) {
	switch s := stmt.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			if key, op, isLock := sc.lockOp(call); isLock {
				switch op {
				case "Lock", "RLock":
					held = append(held, lockInfo{key: key, rlock: op == "RLock", pos: call.Pos()})
				case "Unlock", "RUnlock":
					held = sc.release(held, key, op == "RUnlock")
				}
				return held, false
			}
		}
		sc.checkExpr(s.X, held)
	case *ast.DeferStmt:
		if key, op, isLock := sc.lockOp(s.Call); isLock && (op == "Unlock" || op == "RUnlock") {
			for i := range held {
				if held[i].key == key && held[i].rlock == (op == "RUnlock") && !held[i].deferred {
					held[i].deferred = true
					break
				}
			}
			return held, false
		}
		for _, arg := range s.Call.Args {
			sc.checkExpr(arg, held)
		}
	case *ast.ReturnStmt:
		for _, r := range s.Results {
			sc.checkExpr(r, held)
		}
		for _, l := range held {
			if !l.deferred {
				sc.report(s.Pos(), "return while %s is locked (taken at %s) with no deferred unlock",
					l.key, sc.prog.fset.Position(l.pos))
			}
		}
		return held, true
	case *ast.AssignStmt:
		for _, e := range s.Rhs {
			sc.checkExpr(e, held)
		}
		for _, e := range s.Lhs {
			sc.checkExpr(e, held)
		}
	case *ast.DeclStmt:
		if gd, ok := s.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, v := range vs.Values {
						sc.checkExpr(v, held)
					}
				}
			}
		}
	case *ast.SendStmt:
		if len(held) > 0 {
			sc.report(s.Pos(), "channel send while %s is locked", heldNames(held))
		}
		sc.checkExpr(s.Value, held)
	case *ast.IncDecStmt:
		sc.checkExpr(s.X, held)
	case *ast.IfStmt:
		if s.Init != nil {
			held, _ = sc.scanStmt(s.Init, held)
		}
		sc.checkExpr(s.Cond, held)
		thenPost, thenTerm := sc.scanBlock(s.Body.List, copyLocks(held))
		var states [][]lockInfo
		if !thenTerm {
			states = append(states, thenPost)
		}
		if s.Else != nil {
			elsePost, elseTerm := sc.scanStmt(s.Else, copyLocks(held))
			if !elseTerm {
				states = append(states, elsePost)
			}
			if thenTerm && elseTerm {
				return held, true
			}
		} else {
			states = append(states, held)
		}
		if len(states) == 0 {
			return held, true
		}
		return mergeLocks(states), false
	case *ast.BlockStmt:
		return sc.scanBlock(s.List, held)
	case *ast.ForStmt:
		if s.Init != nil {
			held, _ = sc.scanStmt(s.Init, held)
		}
		if s.Cond != nil {
			sc.checkExpr(s.Cond, held)
		}
		bodyPost, _ := sc.scanBlock(s.Body.List, copyLocks(held))
		sc.checkLoopBalance(s.Pos(), held, bodyPost)
		return held, false
	case *ast.RangeStmt:
		sc.checkExpr(s.X, held)
		bodyPost, _ := sc.scanBlock(s.Body.List, copyLocks(held))
		sc.checkLoopBalance(s.Pos(), held, bodyPost)
		return held, false
	case *ast.SwitchStmt:
		if s.Init != nil {
			held, _ = sc.scanStmt(s.Init, held)
		}
		if s.Tag != nil {
			sc.checkExpr(s.Tag, held)
		}
		return sc.scanClauses(s.Body, held)
	case *ast.TypeSwitchStmt:
		return sc.scanClauses(s.Body, held)
	case *ast.SelectStmt:
		if len(held) > 0 && !selectHasDefault(s) {
			sc.report(s.Pos(), "blocking select while %s is locked", heldNames(held))
		}
		var states [][]lockInfo
		allTerm := true
		for _, clause := range s.Body.List {
			cc := clause.(*ast.CommClause)
			post, term := sc.scanBlock(cc.Body, copyLocks(held))
			if !term {
				allTerm = false
				states = append(states, post)
			}
		}
		if allTerm && len(s.Body.List) > 0 {
			return held, true
		}
		states = append(states, held)
		return mergeLocks(states), false
	case *ast.GoStmt:
		for _, arg := range s.Call.Args {
			sc.checkExpr(arg, held)
		}
		if fl, ok := s.Call.Fun.(*ast.FuncLit); ok {
			sc.scanBlock(fl.Body.List, nil)
		}
	case *ast.LabeledStmt:
		return sc.scanStmt(s.Stmt, held)
	}
	return held, false
}

// scanClauses handles switch/type-switch bodies: each case runs with a
// branch-local copy; the post-state is the union of non-terminating
// cases plus fallthrough past the switch.
func (sc *lockScanner) scanClauses(body *ast.BlockStmt, held []lockInfo) ([]lockInfo, bool) {
	states := [][]lockInfo{held}
	for _, clause := range body.List {
		cc, ok := clause.(*ast.CaseClause)
		if !ok {
			continue
		}
		for _, e := range cc.List {
			sc.checkExpr(e, held)
		}
		post, term := sc.scanBlock(cc.Body, copyLocks(held))
		if !term {
			states = append(states, post)
		}
	}
	return mergeLocks(states), false
}

// checkLoopBalance flags loop bodies whose lock state does not return to
// the loop-entry state — a per-iteration leak (or a release of a lock the
// loop does not own).
func (sc *lockScanner) checkLoopBalance(pos token.Pos, entry, bodyPost []lockInfo) {
	if len(bodyPost) != len(entry) {
		sc.report(pos, "loop body changes held-lock count (%d entering, %d after one iteration)",
			len(entry), len(bodyPost))
	}
}

func heldNames(held []lockInfo) string {
	names := make([]string, len(held))
	for i, l := range held {
		names[i] = l.key
	}
	return strings.Join(names, ", ")
}

func selectHasDefault(s *ast.SelectStmt) bool {
	for _, clause := range s.Body.List {
		if cc, ok := clause.(*ast.CommClause); ok && cc.Comm == nil {
			return true
		}
	}
	return false
}

// release pops the most recent matching lock.
func (sc *lockScanner) release(held []lockInfo, key string, rlock bool) []lockInfo {
	for i := len(held) - 1; i >= 0; i-- {
		if held[i].key == key && held[i].rlock == rlock {
			return append(held[:i:i], held[i+1:]...)
		}
	}
	return held
}

// lockOp reports whether call is (R)Lock/(R)Unlock on a sync.Mutex or
// sync.RWMutex, returning the receiver expression key and the method.
func (sc *lockScanner) lockOp(call *ast.CallExpr) (key, op string, ok bool) {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return "", "", false
	}
	switch sel.Sel.Name {
	case "Lock", "Unlock", "RLock", "RUnlock":
	default:
		return "", "", false
	}
	selection, found := sc.pkg.info.Selections[sel]
	if !found {
		return "", "", false
	}
	recv := selection.Recv()
	if ptr, isPtr := recv.(*types.Pointer); isPtr {
		recv = ptr.Elem()
	}
	named, isNamed := recv.(*types.Named)
	if !isNamed {
		return "", "", false
	}
	obj := named.Obj()
	if obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return "", "", false
	}
	if obj.Name() != "Mutex" && obj.Name() != "RWMutex" {
		return "", "", false
	}
	return exprString(sel.X), sel.Sel.Name, true
}

// checkExpr flags banned operations inside an expression evaluated while
// locks are held, and scans function literals with a fresh (empty) lock
// state since their bodies run elsewhere.
func (sc *lockScanner) checkExpr(expr ast.Expr, held []lockInfo) {
	ast.Inspect(expr, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			sc.scanBlock(n.Body.List, nil)
			return false
		case *ast.UnaryExpr:
			if n.Op == token.ARROW && len(held) > 0 {
				sc.report(n.Pos(), "channel receive while %s is locked", heldNames(held))
			}
		case *ast.CallExpr:
			if len(held) > 0 {
				if msg := sc.bannedCall(n); msg != "" {
					sc.report(n.Pos(), "%s while %s is locked", msg, heldNames(held))
				}
			}
		}
		return true
	})
}

// cryptonightHeavy is the set of package-level cryptonight entry points
// (and Hasher methods) that do scratchpad-scale work.
var cryptonightHeavyFuncs = map[string]bool{"Sum": true, "GetHasher": true, "NewHasher": true}
var cryptonightHeavyMethods = map[string]bool{"Sum": true, "Sum2": true, "Grind": true, "GrindStride": true}

// blockingConnMethods are the methods that can block on a peer when the
// receiver is a net.Conn (or the repo's ws.Conn).
var blockingConnMethods = map[string]bool{"Read": true, "Write": true, "ReadMessage": true, "WriteMessage": true, "ReadFrom": true, "WriteTo": true}

// bannedCall classifies a call made under a lock; "" means allowed.
func (sc *lockScanner) bannedCall(call *ast.CallExpr) string {
	sel, isSel := call.Fun.(*ast.SelectorExpr)
	if !isSel {
		return ""
	}
	// Package-qualified function: cryptonight.* / time.Sleep.
	if ident, isIdent := sel.X.(*ast.Ident); isIdent {
		if pn, isPkg := sc.pkg.info.Uses[ident].(*types.PkgName); isPkg {
			path := pn.Imported().Path()
			switch {
			case strings.HasSuffix(path, "internal/cryptonight") && cryptonightHeavyFuncs[sel.Sel.Name]:
				return "cryptonight." + sel.Sel.Name + " (share verification)"
			case path == "time" && sel.Sel.Name == "Sleep":
				return "time.Sleep"
			}
			return ""
		}
	}
	// Method call: Hasher heavy methods, or blocking conn I/O.
	selection, found := sc.pkg.info.Selections[sel]
	if !found {
		return ""
	}
	recv := selection.Recv()
	elem := recv
	if ptr, isPtr := elem.(*types.Pointer); isPtr {
		elem = ptr.Elem()
	}
	if named, isNamed := elem.(*types.Named); isNamed {
		obj := named.Obj()
		if obj.Pkg() != nil {
			path := obj.Pkg().Path()
			if strings.HasSuffix(path, "internal/cryptonight") && obj.Name() == "Hasher" && cryptonightHeavyMethods[sel.Sel.Name] {
				return "Hasher." + sel.Sel.Name
			}
			if strings.HasSuffix(path, "internal/ws") && obj.Name() == "Conn" && blockingConnMethods[sel.Sel.Name] {
				return "ws.Conn." + sel.Sel.Name + " (blocking socket I/O)"
			}
		}
	}
	if sc.netConn != nil && blockingConnMethods[sel.Sel.Name] && types.Implements(recv, sc.netConn) {
		return "net.Conn." + sel.Sel.Name + " (blocking socket I/O)"
	}
	return ""
}
