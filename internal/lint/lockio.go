package lint

import (
	"go/ast"
	"go/types"
)

// LockIO returns the lockio analyzer: no blocking I/O — HTTP client
// calls, file reads/writes, directory scans, renames/unlinks, network
// dials/listens, time.Sleep — may execute between a Lock()/RLock() and
// its unlock in the same function. The sharded catalog and the
// DiskVolume index are on every request's path; one file operation
// inside such a critical section serializes the whole delivery plane
// behind a disk. The analysis is intra-procedural and lexical: a lock
// released via defer is treated as held until the end of the function,
// an explicit Unlock anywhere (even in a branch that returns) clears the
// state — conservative in the direction of not crying wolf.
func LockIO() *Analyzer {
	a := &Analyzer{
		Name: "lockio",
		Doc:  "no blocking I/O while holding a mutex",
	}
	a.Run = func(pass *Pass) {
		for _, pkg := range pass.Packages {
			for _, f := range pkg.Files {
				ast.Inspect(f, func(n ast.Node) bool {
					var body *ast.BlockStmt
					switch fn := n.(type) {
					case *ast.FuncDecl:
						body = fn.Body
					case *ast.FuncLit:
						body = fn.Body
					default:
						return true
					}
					if body != nil {
						s := &lockScan{pass: pass, pkg: pkg, held: map[string]bool{}, deferred: map[string]bool{}}
						s.scanStmts(body.List)
					}
					return true
				})
			}
		}
	}
	return a
}

type lockScan struct {
	pass     *Pass
	pkg      *Package
	held     map[string]bool // lock expr -> currently held
	deferred map[string]bool // lock expr -> released only at function end
}

func (s *lockScan) anyHeld() (string, bool) {
	for k, v := range s.held {
		if v {
			return k, true
		}
	}
	return "", false
}

func (s *lockScan) scanStmts(list []ast.Stmt) {
	for _, st := range list {
		s.scanStmt(st)
	}
}

func (s *lockScan) scanStmt(st ast.Stmt) {
	switch v := st.(type) {
	case *ast.ExprStmt:
		if recv, kind := lockCallRecv(v.X); kind != "" {
			key := exprKey(recv)
			switch kind {
			case "lock":
				s.held[key] = true
			case "unlock":
				if !s.deferred[key] {
					delete(s.held, key)
				}
			}
			return
		}
		s.scanExpr(v.X)
	case *ast.DeferStmt:
		// defer mu.Unlock(): held until the end of the function.
		if recv, kind := lockCallRecv(v.Call); kind == "unlock" {
			s.deferred[exprKey(recv)] = true
			return
		}
		// defer func() { ...; mu.Unlock(); ... }(): same thing.
		if lit, ok := v.Call.Fun.(*ast.FuncLit); ok {
			ast.Inspect(lit.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if recv, kind := lockCallRecv(call); kind == "unlock" {
						s.deferred[exprKey(recv)] = true
					}
				}
				return true
			})
		}
		// I/O in other defers runs at return time; lock state there is
		// ambiguous (depends on defer order), so it is not reported.
	case *ast.AssignStmt:
		for _, e := range v.Rhs {
			s.scanExpr(e)
		}
		for _, e := range v.Lhs {
			s.scanExpr(e)
		}
	case *ast.GoStmt:
		// A spawned goroutine does not hold this goroutine's locks; its
		// body is analyzed as its own function literal.
	case *ast.ReturnStmt:
		for _, e := range v.Results {
			s.scanExpr(e)
		}
	case *ast.IfStmt:
		if v.Init != nil {
			s.scanStmt(v.Init)
		}
		s.scanExpr(v.Cond)
		s.scanStmts(v.Body.List)
		if v.Else != nil {
			s.scanStmt(v.Else)
		}
	case *ast.ForStmt:
		if v.Init != nil {
			s.scanStmt(v.Init)
		}
		if v.Cond != nil {
			s.scanExpr(v.Cond)
		}
		s.scanStmts(v.Body.List)
		if v.Post != nil {
			s.scanStmt(v.Post)
		}
	case *ast.RangeStmt:
		s.scanExpr(v.X)
		s.scanStmts(v.Body.List)
	case *ast.BlockStmt:
		s.scanStmts(v.List)
	case *ast.SwitchStmt:
		if v.Init != nil {
			s.scanStmt(v.Init)
		}
		for _, c := range v.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				s.scanStmts(cc.Body)
			}
		}
	case *ast.TypeSwitchStmt:
		for _, c := range v.Body.List {
			if cc, ok := c.(*ast.CaseClause); ok {
				s.scanStmts(cc.Body)
			}
		}
	case *ast.SelectStmt:
		for _, c := range v.Body.List {
			if cc, ok := c.(*ast.CommClause); ok {
				s.scanStmts(cc.Body)
			}
		}
	case *ast.DeclStmt:
		// var x = expr
		if gd, ok := v.Decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				if vs, ok := spec.(*ast.ValueSpec); ok {
					for _, e := range vs.Values {
						s.scanExpr(e)
					}
				}
			}
		}
	case *ast.LabeledStmt:
		s.scanStmt(v.Stmt)
	}
}

// scanExpr reports blocking calls inside e while a lock is held, without
// descending into function literals (they run later, elsewhere).
func (s *lockScan) scanExpr(e ast.Expr) {
	if e == nil {
		return
	}
	lock, heldNow := s.anyHeld()
	if !heldNow && len(s.deferred) == 0 {
		return
	}
	if !heldNow {
		for k := range s.deferred {
			lock = k
		}
	}
	ast.Inspect(e, func(n ast.Node) bool {
		if _, ok := n.(*ast.FuncLit); ok {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if desc := blockingCallDesc(s.pkg, call); desc != "" {
			s.pass.Reportf(s.pkg, call.Pos(),
				"blocking I/O (%s) while holding %s — move the call outside the critical section", desc, lock)
		}
		return true
	})
}

// lockCallRecv classifies e as a lock or unlock call and returns the
// receiver expression. Any .Lock()/.RLock()/.Unlock()/.RUnlock() call
// counts — in this codebase those names always mean sync primitives.
func lockCallRecv(e ast.Expr) (ast.Expr, string) {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return nil, ""
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil, ""
	}
	switch sel.Sel.Name {
	case "Lock", "RLock":
		return sel.X, "lock"
	case "Unlock", "RUnlock":
		return sel.X, "unlock"
	}
	return nil, ""
}

// exprKey renders a receiver expression to a stable string key.
func exprKey(e ast.Expr) string {
	return types.ExprString(e)
}

// pkgFuncs lists blocking package-level functions by package path.
var pkgFuncs = map[string]map[string]bool{
	"time": {"Sleep": true},
	"os": {
		"Open": true, "OpenFile": true, "Create": true, "CreateTemp": true,
		"ReadFile": true, "WriteFile": true, "ReadDir": true, "MkdirTemp": true,
		"Remove": true, "RemoveAll": true, "Rename": true, "Link": true, "Symlink": true,
		"Mkdir": true, "MkdirAll": true, "Stat": true, "Lstat": true,
		"Truncate": true, "Chtimes": true, "Chmod": true,
	},
	"net": {
		"Dial": true, "DialTimeout": true, "Listen": true, "ListenPacket": true,
		"LookupHost": true, "LookupAddr": true, "LookupIP": true,
	},
	"net/http": {"Get": true, "Post": true, "Head": true, "PostForm": true},
	"io":       {"Copy": true, "CopyN": true, "CopyBuffer": true, "ReadAll": true},
	// Raw descriptor syscalls: a pack's hole punch, a flush, a
	// positioned read or write each wait on the disk.
	"syscall": {"Fallocate": true, "Fsync": true, "Fdatasync": true, "Pread": true, "Pwrite": true},
}

// clientMethods are the blocking methods of *net/http.Client.
var clientMethods = map[string]bool{"Do": true, "Get": true, "Post": true, "PostForm": true, "Head": true}

// fileMethods are the blocking methods of *os.File (Seek and Close are
// effectively instant and deliberately excluded — the DiskVolume FD pool
// rewinds handles under its lock).
var fileMethods = map[string]bool{
	"Read": true, "Write": true, "ReadAt": true, "WriteAt": true,
	"ReadFrom": true, "WriteTo": true, "Sync": true, "Truncate": true, "WriteString": true,
}

// blockingCallDesc classifies a call as blocking I/O, returning a short
// description or "".
func blockingCallDesc(pkg *Package, call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	// Method call? Resolve the receiver type.
	if pkg.Info != nil {
		if s, ok := pkg.Info.Selections[sel]; ok && s.Kind() == types.MethodVal {
			recv := s.Recv().String()
			switch {
			case recv == "*net/http.Client" && clientMethods[sel.Sel.Name]:
				return "http.Client." + sel.Sel.Name
			case recv == "*os.File" && fileMethods[sel.Sel.Name]:
				return "os.File." + sel.Sel.Name
			}
			return ""
		}
		// Package-qualified function: resolve through Uses so aliased
		// imports still match.
		if fn, ok := pkg.Info.Uses[sel.Sel].(*types.Func); ok {
			if fn.Pkg() != nil {
				if set, ok := pkgFuncs[fn.Pkg().Path()]; ok && set[fn.Name()] {
					return fn.Pkg().Path() + "." + fn.Name()
				}
			}
			return ""
		}
	}
	// No type info: fall back to the syntactic package name.
	if id, ok := sel.X.(*ast.Ident); ok {
		if set, ok := pkgFuncs[id.Name]; ok && set[sel.Sel.Name] {
			return id.Name + "." + sel.Sel.Name
		}
		if id.Name == "http" && pkgFuncs["net/http"][sel.Sel.Name] {
			return "http." + sel.Sel.Name
		}
	}
	return ""
}
