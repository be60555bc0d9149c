package analyzers

import (
	"go/ast"
	"go/constant"
	"go/types"

	"triplea/internal/lint/analysis"
)

// Units polices the dimensional-analysis boundary around the typed
// quantities in internal/units (Bytes, Pages, Blocks, Lanes,
// BytesPerSec) together with simx.Time and topo.PPN.
//
// Go already refuses to mix distinct named types in arithmetic, so the
// hazards that remain are the explicit escape hatches, and this
// analyzer closes them:
//
//   - a conversion between two unit types — units.Bytes(pages),
//     simx.Time(npages) — silently reinterprets one quantity as
//     another; cross-unit math must go through the named helpers
//     (units.PagesToBytes, units.TransferTime, units.ScaleByPages, ...)
//     which carry the conversion factor in their signature;
//   - a conversion from a units type to a basic numeric type —
//     int64(bytes) — erases the unit invisibly; use the Int/Int64
//     accessor methods, which are greppable and named;
//   - a conversion between simx.Time and time.Duration mixes simulated
//     and wall-clock time: both count nanoseconds, which is exactly why
//     simx.Time(d) compiles and "works" until either side's unit
//     changes;
//   - a bare numeric literal where a unit type is expected hides its
//     unit; write 4*units.KiB, not units.Bytes(4096), and
//     500*simx.Nanosecond, not eng.ScheduleEvent(500, h, 0).
//
// The 0 and -1 literal sentinels stay legal and test files are exempt.
// The packages defining the unit types (internal/units, internal/simx,
// internal/topo) are exempt from the units-type rules, because the
// helpers themselves must convert; an audited site elsewhere is
// silenced with //simlint:units. The simx.Time rules (Duration mixing,
// bare literals) cannot be suppressed and skip only internal/simx,
// which defines the time unit constants.
var Units = &analysis.Analyzer{
	Name: "units",
	Doc:  "flag cross-unit conversions, unit-erasing conversions, time.Duration/simx.Time mixing, and bare literals around the unit types",
	Run:  runUnits,
}

// unitTypeName reports the display name of a unit-quantity type:
// one of the internal/units scalars, simx.Time, or topo.PPN.
func unitTypeName(t types.Type) (string, bool) {
	for _, name := range []string{"Bytes", "Pages", "Blocks", "Lanes", "BytesPerSec"} {
		if isNamed(t, "internal/units", name) || isNamed(t, "units", name) {
			return "units." + name, true
		}
	}
	if isSimxTime(t) {
		return "simx.Time", true
	}
	if isNamed(t, "internal/topo", "PPN") || isNamed(t, "topo", "PPN") {
		return "topo.PPN", true
	}
	return "", false
}

// isUnitsScalar reports whether t is one of the internal/units types
// proper (excluding simx.Time and topo.PPN, whose erasures are legal:
// simulated time prints and compares as nanoseconds, and PPN address
// math needs ints).
func isUnitsScalar(t types.Type) bool {
	name, ok := unitTypeName(t)
	return ok && name != "simx.Time" && name != "topo.PPN"
}

// unitDefiningPackages are exempt from the units-type rules: they
// implement the audited conversion helpers.
var unitDefiningPackages = []string{
	"internal/units",
	"internal/simx",
	"internal/topo",
}

func runUnits(pass *analysis.Pass) (any, error) {
	var path string
	if pass.Pkg != nil {
		path = pass.Pkg.Path()
	}
	if hasPathSuffix(path, "internal/simx") {
		return nil, nil // simx defines Time and its unit constants
	}
	// In the other defining packages only the simx.Time rules apply.
	timeOnly := inPackageSet(path, unitDefiningPackages)
	info := pass.TypesInfo
	for _, file := range pass.Files {
		if isTestFile(pass, file.Pos()) {
			continue
		}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				checkUnitsCall(pass, n, timeOnly)
			case *ast.CompositeLit:
				checkUnitsComposite(pass, n, timeOnly)
			case *ast.ValueSpec:
				if n.Type != nil {
					for _, v := range n.Values {
						checkUnitsLiteral(pass, v, info.TypeOf(n.Type), "variable declaration", timeOnly)
					}
				}
			case *ast.AssignStmt:
				for i, rhs := range n.Rhs {
					if i >= len(n.Lhs) {
						break
					}
					checkUnitsLiteral(pass, rhs, info.TypeOf(n.Lhs[i]), "assignment", timeOnly)
				}
			}
			return true
		})
	}
	return nil, nil
}

// checkUnitsCall handles conversions T(x) — the cross-unit, erasing,
// Duration-mixing and bare-literal rules — plus ordinary calls whose
// parameters carry unit types (bare-literal rule).
func checkUnitsCall(pass *analysis.Pass, call *ast.CallExpr, timeOnly bool) {
	info := pass.TypesInfo
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		if len(call.Args) != 1 {
			return
		}
		target := tv.Type
		arg := unparen(call.Args[0])
		argT := info.TypeOf(arg)
		targetName, targetIsUnit := unitTypeName(target)
		argName, argIsUnit := unitTypeName(argT)
		switch {
		case isSimxTime(target) && isDuration(argT):
			pass.Reportf(call.Pos(),
				"conversion of time.Duration to simx.Time bypasses the unit boundary; simulated time must not be derived from wall-clock durations")
		case isDuration(target) && isSimxTime(argT):
			pass.Reportf(call.Pos(),
				"conversion of simx.Time to time.Duration bypasses the unit boundary; print simulated spans with simx.Time's own String and Micros")
		case !timeOnly && targetIsUnit && argIsUnit && targetName != argName:
			if suppressed(pass, call.Pos(), "units") {
				return
			}
			pass.Reportf(call.Pos(),
				"conversion of %s to %s crosses units; use a named units helper (units.PagesToBytes, units.TransferTime, units.ScaleByPages, ...)",
				argName, targetName)
		case !timeOnly && !targetIsUnit && argIsUnit && isUnitsScalar(argT) && isBasicNumeric(target):
			if suppressed(pass, call.Pos(), "units") {
				return
			}
			pass.Reportf(call.Pos(),
				"conversion of %s to %s erases the unit; use the %s accessor method",
				argName, target.String(), accessorFor(target))
		default:
			checkUnitsLiteral(pass, arg, target, "conversion", timeOnly)
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
		if pt != nil {
			checkUnitsLiteral(pass, arg, pt, "argument", timeOnly)
		}
	}
}

func checkUnitsComposite(pass *analysis.Pass, lit *ast.CompositeLit, timeOnly bool) {
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
			if f := st.Field(i); f.Name() == key.Name {
				checkUnitsLiteral(pass, kv.Value, f.Type(), "field "+key.Name, timeOnly)
			}
		}
	}
}

// checkUnitsLiteral flags e when it is a bare numeric literal
// (optionally negated) other than the 0 and -1 sentinels flowing into
// a position of unit type t. A simx.Time position is always checked
// and cannot be suppressed; the other unit types are skipped when
// timeOnly and honour //simlint:units.
func checkUnitsLiteral(pass *analysis.Pass, e ast.Expr, t types.Type, where string, timeOnly bool) {
	typeName, ok := unitTypeName(t)
	if !ok {
		return
	}
	isTime := typeName == "simx.Time"
	if timeOnly && !isTime {
		return
	}
	if lit, _ := literalOf(e); lit == nil || isZeroOrMinusOne(pass, e) {
		return
	}
	if !isTime && suppressed(pass, e.Pos(), "units") {
		return
	}
	example := "4*units.KiB, 8*units.Lane"
	if isTime {
		example = "500*simx.Nanosecond"
	}
	pass.Reportf(e.Pos(),
		"bare numeric literal used as %s in %s hides its unit; multiply by a unit constant (e.g. %s)",
		typeName, where, example)
}

// isBasicNumeric reports whether t is an unnamed basic integer or
// float type (int, int64, uint64, float64, ...).
func isBasicNumeric(t types.Type) bool {
	b, ok := types.Unalias(t).(*types.Basic)
	return ok && b.Info()&(types.IsInteger|types.IsFloat) != 0
}

// accessorFor names the units accessor matching a basic target type.
func accessorFor(t types.Type) string {
	if b, ok := types.Unalias(t).(*types.Basic); ok {
		switch b.Kind() {
		case types.Int:
			return "Int"
		}
	}
	return "Int64"
}

// isZeroOrMinusOne reports whether e is the literal 0 or -1 sentinel.
func isZeroOrMinusOne(pass *analysis.Pass, e ast.Expr) bool {
	lit, neg := literalOf(e)
	if lit == nil {
		return false
	}
	v, ok := intValueOf(pass, lit)
	if !ok {
		return false
	}
	if neg {
		v = -v
	}
	return v == 0 || v == -1
}

func intValueOf(pass *analysis.Pass, e ast.Expr) (int64, bool) {
	tv, ok := pass.TypesInfo.Types[e]
	if !ok || tv.Value == nil {
		return 0, false
	}
	v, exact := constant.Int64Val(constant.ToInt(tv.Value))
	return v, exact
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
