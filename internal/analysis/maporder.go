package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// MapOrder flags `range` statements over maps whose iteration order feeds
// an order-sensitive sink. Go randomizes map iteration, so any value built
// by such a loop differs from run to run — and, fatally for the SPMD
// distributed runtime, from rank to rank: PR 6's SkewedStarDatabase bug
// planted heavy hitters in map order, truncated the tail, and left three
// ranks holding three different star plans.
//
// Sinks, checked inside the loop body:
//
//   - append to a slice declared outside the loop (the appended order
//     escapes the iteration) — unless the same variable is passed to a
//     sort.*/slices.* call or a *Sort* function later in the enclosing
//     function, which is the canonical collect-then-sort idiom;
//   - engine emission and seeding (every Emitter.Emit* — EmitTuple,
//     EmitBatch, EmitFanout, and EmitRouted, which routes a whole block —
//     every Cluster.Seed* — Seed, SeedBatch, SeedRoundRobin, SeedRelations,
//     SeedPartitioned — and Inbox.Append):
//     emission order becomes inbox order becomes output order;
//   - data.Relation appends (Append/AppendTuple/AppendVals/...): tuple
//     order is fingerprint-visible;
//   - byte-accumulator writes (strings.Builder, bytes.Buffer, hash.Hash,
//     maphash.Hash): fingerprints and rendered plans must not depend on
//     map order.
//
// Iterating a map to fill another map, a set, or per-iteration locals is
// fine and not flagged. Loops whose order is genuinely harmless at a sink
// (e.g. summed into a commutative accumulator the analyzer cannot prove)
// take a `//lint:allow maporder <reason>`.
var MapOrder = &Analyzer{
	Name: "maporder",
	Doc:  "flags map iteration feeding order-sensitive sinks (appends, emissions, fingerprints)",
	Run:  runMapOrder,
}

func runMapOrder(pass *Pass) error {
	for _, file := range pass.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			checkMapRanges(pass, fn.Body)
		}
	}
	return nil
}

func checkMapRanges(pass *Pass, body *ast.BlockStmt) {
	var ranges []*ast.RangeStmt
	ast.Inspect(body, func(n ast.Node) bool {
		if rs, ok := n.(*ast.RangeStmt); ok && isMapType(pass.TypeOf(rs.X)) {
			ranges = append(ranges, rs)
		}
		return true
	})
	for _, rs := range ranges {
		reportMapRangeSinks(pass, body, rs)
	}
}

func reportMapRangeSinks(pass *Pass, enclosing *ast.BlockStmt, rs *ast.RangeStmt) {
	info := pass.TypesInfo
	ast.Inspect(rs.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		// Builtin append whose target lives beyond the loop.
		if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
			if b, ok := info.Uses[id].(*types.Builtin); ok && b.Name() == "append" && len(call.Args) > 0 {
				obj := objectOf(info, call.Args[0])
				if obj != nil && !insideNode(rs, obj.Pos()) && !sortedLater(pass, enclosing, rs, obj) {
					pass.Reportf(call.Pos(),
						"append to %q inside range over map %s leaks map iteration order; sort the keys first (or sort %q before use)",
						obj.Name(), exprString(rs.X), obj.Name())
				}
				return true
			}
		}
		f := calleeFunc(info, call)
		if f == nil {
			return true
		}
		if msg := orderSensitiveCall(f); msg != "" {
			pass.Reportf(call.Pos(),
				"%s inside range over map %s makes %s depend on map iteration order; iterate sorted keys instead",
				f.Name(), exprString(rs.X), msg)
		}
		return true
	})
}

// orderSensitiveCall classifies f as an order-sensitive sink, returning a
// short description of what the call makes order-dependent ("" = not a
// sink).
func orderSensitiveCall(f *types.Func) string {
	pkgPath, typeName := recvTypeName(f)
	name := f.Name()
	switch {
	case pathHasSuffix(pkgPath, "internal/engine"):
		switch {
		case typeName == "Emitter" && strings.HasPrefix(name, "Emit"),
			typeName == "Cluster" && strings.HasPrefix(name, "Seed"),
			typeName == "Inbox" && name == "Append":
			return "emission/inbox order (and therefore output order and fingerprints)"
		}
	case pathHasSuffix(pkgPath, "internal/data") && typeName == "Relation" && strings.HasPrefix(name, "Append"):
		return "relation tuple order (fingerprint-visible)"
	case pkgPath == "strings" && typeName == "Builder" && strings.HasPrefix(name, "Write"):
		return "the built string"
	case pkgPath == "bytes" && typeName == "Buffer" && strings.HasPrefix(name, "Write"):
		return "the buffered bytes"
	case pkgPath == "hash/maphash" && typeName == "Hash" && strings.HasPrefix(name, "Write"):
		return "the hash value"
	case name == "Write" && isHashInterfaceMethod(f):
		return "the hash value"
	}
	return ""
}

// isHashInterfaceMethod reports whether f is a method reached through the
// hash package's interfaces (hash.Hash, hash.Hash32, hash.Hash64). A
// generic io.Writer receiver is deliberately NOT a sink — too coarse.
func isHashInterfaceMethod(f *types.Func) bool {
	sig, ok := f.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	if named, ok := sig.Recv().Type().(*types.Named); ok {
		obj := named.Obj()
		return obj.Pkg() != nil && obj.Pkg().Path() == "hash"
	}
	return false
}

// insideNode reports whether pos falls within n's source extent.
func insideNode(n ast.Node, pos token.Pos) bool {
	return n.Pos() <= pos && pos < n.End()
}

// sortedLater reports whether obj is passed, after the range statement, to
// a call that establishes a deterministic order: anything from sort or
// slices, or a function/method whose name contains "Sort".
func sortedLater(pass *Pass, enclosing *ast.BlockStmt, rs *ast.RangeStmt, obj types.Object) bool {
	info := pass.TypesInfo
	found := false
	ast.Inspect(enclosing, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < rs.End() {
			return true
		}
		if !isSortingCall(info, call) {
			return true
		}
		for _, arg := range call.Args {
			if usesObject(info, arg, obj) {
				found = true
				break
			}
		}
		return !found
	})
	return found
}

func isSortingCall(info *types.Info, call *ast.CallExpr) bool {
	f := calleeFunc(info, call)
	if f == nil {
		return false
	}
	if p := funcPkgPath(f); p == "sort" || p == "slices" {
		return true
	}
	return strings.Contains(f.Name(), "Sort") || strings.Contains(f.Name(), "sort")
}

func exprString(e ast.Expr) string {
	switch v := e.(type) {
	case *ast.Ident:
		return v.Name
	case *ast.SelectorExpr:
		return exprString(v.X) + "." + v.Sel.Name
	case *ast.IndexExpr:
		return exprString(v.X) + "[...]"
	case *ast.CallExpr:
		return exprString(v.Fun) + "(...)"
	case *ast.ParenExpr:
		return exprString(v.X)
	}
	return "expression"
}
