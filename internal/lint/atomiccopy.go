package lint

import (
	"go/ast"
	"go/types"
)

// atomicTypeNames are the sync/atomic types whose by-value copy silently
// forks the value (and, for Pointer[T], defeats the copy-on-write
// registry design).
var atomicTypeNames = map[string]bool{
	"Bool": true, "Int32": true, "Int64": true, "Uint32": true,
	"Uint64": true, "Uintptr": true, "Pointer": true, "Value": true,
}

// AtomicCopy returns the atomiccopy analyzer: no struct that embeds a
// sync/atomic type (directly or transitively) may be copied by value —
// assignment from an existing value, by-value argument passing, by-value
// returns, or ranging over a slice of them. vet's copylocks misses the
// generic atomic.Pointer[T] fields the registry's copy-on-write snapshot
// depends on; this closes that gap.
func AtomicCopy() *Analyzer {
	a := &Analyzer{
		Name: "atomiccopy",
		Doc:  "no by-value copies of structs carrying sync/atomic fields",
	}
	a.Run = func(pass *Pass) {
		for _, pkg := range pass.Packages {
			if pkg.Info == nil {
				continue
			}
			c := &atomicCopyCheck{pass: pass, pkg: pkg, memo: map[types.Type]bool{}}
			for _, f := range pkg.Files {
				ast.Inspect(f, c.visit)
			}
		}
	}
	return a
}

type atomicCopyCheck struct {
	pass *Pass
	pkg  *Package
	memo map[types.Type]bool
}

func (c *atomicCopyCheck) visit(n ast.Node) bool {
	switch v := n.(type) {
	case *ast.AssignStmt:
		if len(v.Lhs) == len(v.Rhs) {
			for _, rhs := range v.Rhs {
				c.checkCopyExpr(rhs, "assignment")
			}
		}
	case *ast.ValueSpec:
		for _, val := range v.Values {
			c.checkCopyExpr(val, "assignment")
		}
	case *ast.CallExpr:
		for _, arg := range v.Args {
			c.checkCopyExpr(arg, "argument")
		}
	case *ast.ReturnStmt:
		for _, r := range v.Results {
			c.checkCopyExpr(r, "return")
		}
	case *ast.RangeStmt:
		if v.Value != nil {
			if t := c.typeOf(v.Value); t != nil && c.carriesAtomic(t) {
				c.pass.Reportf(c.pkg, v.Value.Pos(),
					"range copies %s by value; it carries sync/atomic fields — range over indices or pointers instead", t)
			}
		}
	}
	return true
}

// checkCopyExpr reports e if evaluating it copies an existing value of
// an atomic-carrying struct type. Composite literals, calls, and
// address-taking produce or move fresh/pointer values and are fine, and
// so is a type: new(T)'s argument names T, it copies no value.
func (c *atomicCopyCheck) checkCopyExpr(e ast.Expr, what string) {
	switch ast.Unparen(e).(type) {
	case *ast.Ident, *ast.SelectorExpr, *ast.IndexExpr, *ast.StarExpr:
	default:
		return
	}
	if c.pkg.Info.Types[e].IsType() {
		return
	}
	t := c.typeOf(e)
	if t == nil || !c.carriesAtomic(t) {
		return
	}
	c.pass.Reportf(c.pkg, e.Pos(),
		"%s copies %s by value; it carries sync/atomic fields (vet's copylocks misses this) — pass a pointer", what, t)
}

func (c *atomicCopyCheck) typeOf(e ast.Expr) types.Type {
	if tv, ok := c.pkg.Info.Types[e]; ok {
		return tv.Type
	}
	if id, ok := ast.Unparen(e).(*ast.Ident); ok {
		if obj := c.pkg.Info.Uses[id]; obj != nil {
			return obj.Type()
		}
		if obj := c.pkg.Info.Defs[id]; obj != nil {
			return obj.Type()
		}
	}
	return nil
}

// carriesAtomic reports whether t is, or transitively contains by value,
// a sync/atomic type. Pointers, slices, and maps break the chain — the
// hazard is only in values copied wholesale.
func (c *atomicCopyCheck) carriesAtomic(t types.Type) bool {
	if done, ok := c.memo[t]; ok {
		return done
	}
	c.memo[t] = false // breaks recursive types
	res := c.atomicWalk(t)
	c.memo[t] = res
	return res
}

func (c *atomicCopyCheck) atomicWalk(t types.Type) bool {
	switch v := t.(type) {
	case *types.Named:
		obj := v.Obj()
		if obj.Pkg() != nil && obj.Pkg().Path() == "sync/atomic" && atomicTypeNames[obj.Name()] {
			return true
		}
		return c.carriesAtomic(v.Underlying())
	case *types.Alias:
		return c.carriesAtomic(types.Unalias(t))
	case *types.Struct:
		for i := 0; i < v.NumFields(); i++ {
			if c.carriesAtomic(v.Field(i).Type()) {
				return true
			}
		}
	case *types.Array:
		return c.carriesAtomic(v.Elem())
	}
	return false
}
