package analyzers

import (
	"go/ast"
	"go/token"
	"go/types"

	"triplea/internal/lint/analysis"
)

// orderSinkCalls are method/function names whose invocation inside a
// map-range body makes iteration order observable: they schedule
// simulation events, enqueue work, or build ordered output.
var orderSinkCalls = map[string]bool{
	// event scheduling / work dispatch
	"ScheduleEvent": true, "AtEvent": true, "AcquireG": true,
	"Submit": true, "Enqueue": true,
	"Push": true, "Dispatch": true, "Send": true, "Emit": true,
	// ordered output construction
	"AddRow": true, "Record": true,
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
	"Print": true, "Println": true, "Printf": true,
	"Fprint": true, "Fprintln": true, "Fprintf": true,
}

// Maporder flags range statements over maps whose bodies let the
// iteration order escape: scheduling events, appending to or mutating
// state declared outside the loop, emitting output, or invoking a
// caller-supplied function value. Go randomizes map iteration order
// per run, so any such loop silently corrupts event order or report
// content between reruns of the same seed.
//
// Loops whose escape is genuinely order-independent (a commutative
// max/sum over ints, say) are suppressed after audit with a
// "//simlint:ordered" comment on the range line or the line above.
// The right fix everywhere else is to sort the keys first and range
// over the sorted slice.
var Maporder = &analysis.Analyzer{
	Name: "maporder",
	Doc:  "flag map iteration whose nondeterministic order escapes into events, state, or output",
	Run:  runMaporder,
}

func runMaporder(pass *analysis.Pass) (any, error) {
	for _, file := range pass.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			rng, ok := n.(*ast.RangeStmt)
			if !ok {
				return true
			}
			t := pass.TypesInfo.TypeOf(rng.X)
			if t == nil {
				return true
			}
			if _, isMap := t.Underlying().(*types.Map); !isMap {
				return true
			}
			if suppressed(pass, rng.Pos(), "ordered") {
				return true
			}
			if reason, sinkPos := mapOrderEscape(pass, rng); reason != "" {
				pass.Reportf(rng.Pos(),
					"map iteration order is nondeterministic but %s (line %d); sort the keys first or audit with //simlint:ordered",
					reason, pass.Fset.Position(sinkPos).Line)
			}
			return true
		})
	}
	return nil, nil
}

// mapOrderEscape reports how (if at all) the loop body makes map
// iteration order observable outside one iteration.
func mapOrderEscape(pass *analysis.Pass, rng *ast.RangeStmt) (reason string, pos token.Pos) {
	info := pass.TypesInfo
	outer := func(e ast.Expr) bool { return rootOutsideRange(info, e, rng) }

	ast.Inspect(rng.Body, func(n ast.Node) bool {
		if reason != "" {
			return false
		}
		switch n := n.(type) {
		case *ast.AssignStmt:
			if isPureCollection(info, n, rng) {
				// s = append(s, k) / append(s, k, v): collecting keys
				// to sort them is the canonical fix, not a violation.
				return true
			}
			for _, lhs := range n.Lhs {
				if outer(lhs) {
					reason, pos = "the body assigns to state declared outside the loop", n.Pos()
					return false
				}
			}
		case *ast.IncDecStmt:
			if outer(n.X) {
				reason, pos = "the body mutates state declared outside the loop", n.Pos()
				return false
			}
		case *ast.SendStmt:
			reason, pos = "the body sends on a channel", n.Pos()
			return false
		case *ast.CallExpr:
			callee := unparen(n.Fun)
			switch c := callee.(type) {
			case *ast.SelectorExpr:
				if orderSinkCalls[c.Sel.Name] {
					reason, pos = "the body calls "+c.Sel.Name+", which schedules work or emits output", n.Pos()
					return false
				}
			case *ast.Ident:
				if obj := info.Uses[c]; obj != nil {
					if v, isVar := obj.(*types.Var); isVar {
						if _, isFunc := v.Type().Underlying().(*types.Signature); isFunc {
							reason, pos = "the body invokes the function value "+c.Name+", whose effects depend on call order", n.Pos()
							return false
						}
					}
				}
			}
		}
		return true
	})
	return reason, pos
}

// isPureCollection reports whether stmt has the exact shape
// `s = append(s, args...)` with every arg rooted at the range's own
// key/value variables — the key-collection half of the sort-then-range
// idiom, which is order-independent once the caller sorts s.
func isPureCollection(info *types.Info, stmt *ast.AssignStmt, rng *ast.RangeStmt) bool {
	if len(stmt.Lhs) != 1 || len(stmt.Rhs) != 1 {
		return false
	}
	call, ok := unparen(stmt.Rhs[0]).(*ast.CallExpr)
	if !ok || len(call.Args) < 2 {
		return false
	}
	fn, ok := unparen(call.Fun).(*ast.Ident)
	if !ok {
		return false
	}
	if _, isBuiltin := info.Uses[fn].(*types.Builtin); !isBuiltin || fn.Name != "append" {
		return false
	}
	lhsObj := objectOfIdent(info, stmt.Lhs[0])
	if lhsObj == nil || lhsObj != objectOfIdent(info, call.Args[0]) {
		return false
	}
	kv := rangeVarObjects(info, rng)
	for _, arg := range call.Args[1:] {
		if !rootedIn(info, arg, kv) {
			return false
		}
	}
	return true
}

func objectOfIdent(info *types.Info, e ast.Expr) types.Object {
	id, ok := unparen(e).(*ast.Ident)
	if !ok {
		return nil
	}
	return info.ObjectOf(id)
}

func rangeVarObjects(info *types.Info, rng *ast.RangeStmt) map[types.Object]bool {
	out := make(map[types.Object]bool, 2)
	for _, e := range []ast.Expr{rng.Key, rng.Value} {
		if obj := objectOfIdent(info, e); obj != nil {
			out[obj] = true
		}
	}
	return out
}

// rootedIn reports whether e is an expression built only from the
// given objects (selectors, indexing, conversions of them).
func rootedIn(info *types.Info, e ast.Expr, objs map[types.Object]bool) bool {
	switch x := unparen(e).(type) {
	case *ast.Ident:
		return objs[info.ObjectOf(x)]
	case *ast.SelectorExpr:
		return rootedIn(info, x.X, objs)
	case *ast.IndexExpr:
		return rootedIn(info, x.X, objs)
	case *ast.StarExpr:
		return rootedIn(info, x.X, objs)
	case *ast.UnaryExpr:
		return rootedIn(info, x.X, objs)
	case *ast.CallExpr:
		// A conversion of the range var, e.g. append(s, int64(k)).
		if tv, ok := info.Types[x.Fun]; ok && tv.IsType() && len(x.Args) == 1 {
			return rootedIn(info, x.Args[0], objs)
		}
		return false
	default:
		return false
	}
}

// rootOutsideRange reports whether the root object of an assignable
// expression (x, x.f, x[i], *x, ...) is declared outside the range
// statement — i.e. the write survives the loop.
func rootOutsideRange(info *types.Info, e ast.Expr, rng *ast.RangeStmt) bool {
	for {
		switch x := e.(type) {
		case *ast.Ident:
			obj := info.ObjectOf(x)
			if obj == nil {
				return false
			}
			if _, isVar := obj.(*types.Var); !isVar {
				return false
			}
			return obj.Pos() < rng.Pos() || obj.Pos() > rng.End()
		case *ast.SelectorExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		default:
			return false
		}
	}
}
