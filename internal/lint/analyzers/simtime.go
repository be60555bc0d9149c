package analyzers

import (
	"go/ast"
	"go/constant"
	"go/types"

	"triplea/internal/lint/analysis"
)

// Simtime polices the boundary between simulated time (simx.Time) and
// the standard library's time.Duration, and bans unit-less numeric
// literals where simx.Time is expected.
//
// Both types count nanoseconds, which is exactly why confusing them is
// so easy: simx.Time(d) for a time.Duration d compiles and "works"
// until someone changes either side's unit. Conversions must go
// through the audited bridge (simx.FromDuration / Time.Duration).
// Likewise a bare literal — eng.ScheduleEvent(500, h, 0) — hides its unit;
// write 500*simx.Nanosecond. The literals 0 and -1 stay legal as the
// conventional zero/sentinel values. Test files are exempt: fixtures
// pin small literal timestamps on purpose, and the unit-drift hazard
// this rule guards against lives in the production latency models.
var Simtime = &analysis.Analyzer{
	Name: "simtime",
	Doc:  "flag time.Duration/simx.Time mixing and unit-less literals used as simx.Time",
	Run:  runSimtime,
}

func runSimtime(pass *analysis.Pass) (any, error) {
	if pass.Pkg != nil && hasPathSuffix(pass.Pkg.Path(), "internal/simx") {
		return nil, nil // simx itself defines the audited bridge
	}
	info := pass.TypesInfo
	for _, file := range pass.Files {
		if isTestFile(pass, file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkSimtimeCall(pass, n)
			case *ast.CompositeLit:
				checkSimtimeComposite(pass, n)
			case *ast.ValueSpec:
				if n.Type != nil && isSimxTime(info.TypeOf(n.Type)) {
					for _, v := range n.Values {
						reportBareLiteral(pass, v, "variable declaration")
					}
				}
			case *ast.AssignStmt:
				for i, rhs := range n.Rhs {
					if i < len(n.Lhs) && isSimxTime(info.TypeOf(n.Lhs[i])) {
						reportBareLiteral(pass, rhs, "assignment")
					}
				}
			}
			return true
		})
	}
	return nil, nil
}

// checkSimtimeCall handles both conversions (simx.Time(x),
// time.Duration(x)) and ordinary calls with simx.Time parameters.
func checkSimtimeCall(pass *analysis.Pass, call *ast.CallExpr) {
	info := pass.TypesInfo
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		// A conversion T(x).
		target := tv.Type
		if len(call.Args) != 1 {
			return
		}
		arg := unparen(call.Args[0])
		argT := info.TypeOf(arg)
		switch {
		case isSimxTime(target) && isDuration(argT):
			pass.Reportf(call.Pos(),
				"conversion of time.Duration to simx.Time bypasses the unit boundary; use simx.FromDuration")
		case isDuration(target) && isSimxTime(argT):
			pass.Reportf(call.Pos(),
				"conversion of simx.Time to time.Duration bypasses the unit boundary; use the Time.Duration method")
		case isSimxTime(target):
			reportBareLiteral(pass, arg, "conversion")
		}
		return
	}
	sig, ok := typeAsSignature(info.TypeOf(call.Fun))
	if !ok {
		return
	}
	params := sig.Params()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= params.Len()-1:
			last := params.At(params.Len() - 1).Type()
			if s, isSlice := last.(*types.Slice); isSlice {
				pt = s.Elem()
			}
		case i < params.Len():
			pt = params.At(i).Type()
		}
		if pt != nil && isSimxTime(pt) {
			reportBareLiteral(pass, arg, "argument")
		}
	}
}

func checkSimtimeComposite(pass *analysis.Pass, lit *ast.CompositeLit) {
	info := pass.TypesInfo
	t := info.TypeOf(lit)
	if t == nil {
		return
	}
	st, ok := t.Underlying().(*types.Struct)
	if !ok {
		return
	}
	for _, el := range lit.Elts {
		kv, ok := el.(*ast.KeyValueExpr)
		if !ok {
			continue
		}
		key, ok := kv.Key.(*ast.Ident)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			if f.Name() == key.Name && isSimxTime(f.Type()) {
				reportBareLiteral(pass, kv.Value, "field "+key.Name)
			}
		}
	}
}

// reportBareLiteral flags e when it is a unit-less numeric literal
// (optionally negated) other than the 0 and -1 sentinels.
func reportBareLiteral(pass *analysis.Pass, e ast.Expr, where string) {
	lit, neg := literalOf(e)
	if lit == nil {
		return
	}
	if tv, ok := pass.TypesInfo.Types[lit]; ok && tv.Value != nil {
		if v, exact := constant.Int64Val(constant.ToInt(tv.Value)); exact {
			if neg {
				v = -v
			}
			if v == 0 || v == -1 {
				return
			}
		}
	}
	pass.Reportf(e.Pos(),
		"bare numeric literal used as simx.Time in %s hides its unit; multiply by a simx unit constant (e.g. 500*simx.Nanosecond)",
		where)
}

// literalOf unwraps e to a basic literal, tracking one leading minus.
func literalOf(e ast.Expr) (*ast.BasicLit, bool) {
	e = unparen(e)
	neg := false
	if u, ok := e.(*ast.UnaryExpr); ok {
		if u.Op.String() != "-" {
			return nil, false
		}
		neg = true
		e = unparen(u.X)
	}
	lit, ok := e.(*ast.BasicLit)
	if !ok {
		return nil, false
	}
	return lit, neg
}

func typeAsSignature(t types.Type) (*types.Signature, bool) {
	if t == nil {
		return nil, false
	}
	sig, ok := t.Underlying().(*types.Signature)
	return sig, ok
}
