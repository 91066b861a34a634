package analysis

import (
	"go/ast"
	"go/types"
)

// AnalyzerCtxThread enforces context threading: a function that receives
// a context.Context must hand that context (or one derived from it) to
// every callee that accepts one — manufacturing a fresh
// context.Background()/TODO() inside such a function severs the
// cancellation chain, which is exactly how a job cancel stops reaching a
// hot loop. Outside functions that already hold a ctx, Background/TODO
// is only legitimate at the process root: package main, and in a
// context-free twin, a method whose whole body is
// `return <recv>.<Name>Ctx(context.Background(), <its own params>...)`:
// it owns no lifetime, and its callers can switch to the Ctx twin.
// Everywhere else the site needs a //fedvallint:allow(ctxthread)
// annotation explaining who owns the lifetime (daemon-scoped background
// loops, convenience APIs).
var AnalyzerCtxThread = &Analyzer{
	Name: "ctxthread",
	Doc:  "received contexts are threaded to callees; no context.Background outside main",
	Run:  runCtxThread,
}

func runCtxThread(pass *Pass) {
	for _, f := range pass.Files {
		// funcStack tracks whether any enclosing function literal or
		// declaration receives a context parameter.
		var stack []bool
		hasCtx := func() bool {
			for _, h := range stack {
				if h {
					return true
				}
			}
			return false
		}
		var visit func(n ast.Node) bool
		visit = func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if isCtxTwin(pass, n) {
					return false
				}
				stack = append(stack, fieldListHasContext(pass, n.Type.Params))
				if n.Body != nil {
					ast.Inspect(n.Body, visit)
				}
				stack = stack[:len(stack)-1]
				return false
			case *ast.FuncLit:
				stack = append(stack, fieldListHasContext(pass, n.Type.Params))
				ast.Inspect(n.Body, visit)
				stack = stack[:len(stack)-1]
				return false
			case *ast.CallExpr:
				if !isFreshContextCall(pass, n) {
					// Passing an untyped nil where a callee expects a
					// context severs cancellation the same way a fresh
					// Background does.
					for i, arg := range n.Args {
						if !isNilIdent(arg) {
							continue
						}
						if sig := calleeSignature(pass, n); sig != nil && i < sig.Params().Len() && isContextType(sig.Params().At(i).Type()) {
							pass.Reportf(arg.Pos(), "nil passed for a context.Context parameter: pass the caller's ctx")
						}
					}
					return true
				}
				name := "context.Background"
				if fn := calleeFunc(pass, n); fn != nil && fn.Name() == "TODO" {
					name = "context.TODO"
				}
				switch {
				case hasCtx():
					pass.Reportf(n.Pos(), "%s() inside a function that already receives a ctx: thread the caller's ctx so cancellation propagates", name)
				case pass.Pkg.Name() != "main":
					pass.Reportf(n.Pos(), "%s() outside package main: accept a ctx from the caller instead of severing the cancellation chain", name)
				}
			}
			return true
		}
		ast.Inspect(f, visit)
	}
}

// isCtxTwin reports whether fn is a method whose whole body is
// `return <recv>.<Name>Ctx(context.Background(), p1, ..., pn)`, passing
// its own parameters p1..pn in order.
func isCtxTwin(pass *Pass, fn *ast.FuncDecl) bool {
	if fn.Recv == nil || len(fn.Recv.List[0].Names) != 1 || fn.Body == nil || len(fn.Body.List) != 1 {
		return false
	}
	ret, ok := fn.Body.List[0].(*ast.ReturnStmt)
	if !ok || len(ret.Results) != 1 {
		return false
	}
	call, ok := ret.Results[0].(*ast.CallExpr)
	if !ok || len(call.Args) != 1+fn.Type.Params.NumFields() || call.Ellipsis.IsValid() {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || sel.Sel.Name != fn.Name.Name+"Ctx" || !usesDef(pass, sel.X, fn.Recv.List[0].Names[0]) {
		return false
	}
	ctxArg, ok := call.Args[0].(*ast.CallExpr)
	if !ok || !isFreshContextCall(pass, ctxArg) || calleeFunc(pass, ctxArg).Name() != "Background" {
		return false
	}
	i := 1
	for _, field := range fn.Type.Params.List {
		for _, p := range field.Names {
			if !usesDef(pass, call.Args[i], p) {
				return false
			}
			i++
		}
	}
	return i == len(call.Args) // false when a parameter is unnamed
}

// usesDef reports whether e is an identifier referring to the object def
// declares.
func usesDef(pass *Pass, e ast.Expr, def *ast.Ident) bool {
	id, ok := e.(*ast.Ident)
	return ok && pass.Info.Uses[id] != nil && pass.Info.Uses[id] == pass.Info.Defs[def]
}

// fieldListHasContext reports whether any parameter has type
// context.Context.
func fieldListHasContext(pass *Pass, params *ast.FieldList) bool {
	if params == nil {
		return false
	}
	for _, field := range params.List {
		if t := pass.TypeOf(field.Type); t != nil && isContextType(t) {
			return true
		}
	}
	return false
}

// isFreshContextCall reports whether call is context.Background() or
// context.TODO().
func isFreshContextCall(pass *Pass, call *ast.CallExpr) bool {
	fn := calleeFunc(pass, call)
	return fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "context" &&
		(fn.Name() == "Background" || fn.Name() == "TODO")
}

// calleeFunc resolves the called function object, if the callee is a
// plain identifier or selector.
func calleeFunc(pass *Pass, call *ast.CallExpr) *types.Func {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return nil
	}
	fn, _ := pass.Info.Uses[id].(*types.Func)
	return fn
}

// calleeSignature returns the callee's signature, or nil for
// conversions, builtins and untypeable callees.
func calleeSignature(pass *Pass, call *ast.CallExpr) *types.Signature {
	t := pass.TypeOf(call.Fun)
	if t == nil {
		return nil
	}
	sig, _ := t.Underlying().(*types.Signature)
	return sig
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// isNilIdent reports whether e is the predeclared nil.
func isNilIdent(e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	return ok && id.Name == "nil"
}
