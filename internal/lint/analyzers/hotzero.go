package analyzers

// hotzero certifies the simulation hot path allocation-free.
//
// The paper's evaluation turns on sustained event throughput: one
// simulated second of array traffic is tens of millions of simulator
// events, and PR 3 moved every per-event object into intrusive pools
// precisely so the steady-state loop performs zero heap allocations.
// That property is load-bearing (BENCH_*.json records allocs/op = 0
// for the event loop) but was, until this analyzer, enforced only by
// benchmark inspection. hotzero makes it a build-time contract.
//
// Mechanics: for each hot package, build the static call graph
// (internal/lint/callgraph), seed a worklist with the hot roots, walk
// every statically reachable function, and report each construct the
// Go compiler may lower to a heap allocation:
//
//   - escaping composite literals (&T{...}) and new(T)
//   - slice/map literals, make of slices/maps/chans
//   - append (growth can reallocate the backing array)
//   - interface boxing — explicit conversions, call arguments,
//     assignments, and returns whose target is an interface and whose
//     operand is a non-pointer-shaped concrete value (pointer, chan,
//     map, func, and interface operands fit the data word and do not
//     allocate, which is what lets pre-bound pointer-receiver handlers
//     pass)
//   - closures that capture locals, and bound-method values
//   - string concatenation and string<->[]byte/[]rune conversions
//   - variadic calls (the argument slice)
//   - calls that leave the certified world: uncertified functions,
//     unregistered interface dispatch, dynamic calls through function
//     values
//
// Because the analysis framework is strictly per-package (no facts),
// certification is modular: the registration tables below name every
// function the hot path may call across package boundaries. An entry
// plays two roles — in its defining package's run it is a ROOT (its
// body is walked and certified), and at a call site in any other
// package it is a CERTIFIED EDGE (trusted, because the defining
// package's run proves it). Event/grant/completion handlers are rooted
// structurally: any method in a hot package whose name is a registered
// dispatch method (OnEvent, OnGrant, ...) is walked without an
// explicit table entry, mirroring how the engine invokes them.
//
// Two audited escape hatches, both logged in docs/static-analysis.md:
//
//	//simlint:coldalloc  on the line (or the line above) suppresses one
//	                     finding — for pool-miss Fresh paths, amortized
//	                     growth, and terminal error paths.
//	//simlint:cold       on a func declaration (or the line above)
//	                     prunes the function and everything only it
//	                     reaches — for setup/teardown helpers reachable
//	                     from hot code but executed off the hot loop.
//
// panic(...) argument subtrees are exempt by construction: a panicking
// simulator is not on the hot path, and the repo's panics format their
// messages.

import (
	"go/ast"
	"go/token"
	"go/types"

	"triplea/internal/lint/analysis"
	"triplea/internal/lint/callgraph"
)

var Hotzero = &analysis.Analyzer{
	Name: "hotzero",
	Doc:  "certify the event-loop hot path allocation-free: walk the static call graph from every handler/grantee/pool root and report heap-allocating constructs and uncertified calls",
	Run:  runHotzero,
}

// hotzeroPackageSuffixes is the analyzer's scope: the simulation core
// plus the support packages hot code calls into. A package must be in
// scope for its certified-table entries to actually be verified.
var hotzeroPackageSuffixes = append([]string{
	"internal/units",
}, isoStatePackageSuffixes...)

// hotDispatchMethods are the registered dispatch points: the engine and
// device layers invoke these through interfaces on every event, so
// every in-scope method with one of these names is structurally a hot
// root, and interface dispatch through one of these names is a
// certified edge (each implementer is rooted in its own package's run).
var hotDispatchMethods = map[string]bool{
	"OnEvent":          true, // simx.Handler — the event loop itself
	"OnGrant":          true, // simx.Grantee — resource-grant continuations
	"OnNandDone":       true, // nand.Done — die operation completions
	"OnFIMMDone":       true, // fimm.Done — flash-module completions
	"OnCommandFlushed": true, // cluster.FlushedH — write-cache flushes
	"Receive":          true, // pcie.Receiver — packet delivery
	"OnLinkAccepted":   true, // pcie.Accepted — link-credit continuations
	"OnPageComplete":   true, // array.Hooks — page completion callback
	"WriteTarget":      true, // array.Hooks — target-selection callback
	"launch":           true, // array.launcher — program-launch indirection
}

// hotCertified registers the cross-package API surface of the hot
// path beyond the pool/handoff tables (those are folded in by
// hotRegistered below). Keep this table tight: every entry is walked
// as a root in its defining package, so a bogus entry is noisy, not
// unsound — but an entry here asserts "hot by design", so additions
// belong in code review.
var hotCertified = []funcRef{
	// simx engine surface invoked per event
	{"internal/simx", "Engine", "Now"},
	{"internal/simx", "Engine", "Step"},
	{"internal/simx", "eventHeap", "Len"},
	{"internal/simx", "eventHeap", "Less"},
	{"internal/simx", "eventHeap", "Swap"},
	{"internal/simx", "eventHeap", "Push"},
	{"internal/simx", "eventHeap", "Pop"},
	{"internal/simx", "Resource", "Release"},
	{"internal/simx", "Resource", "TryAcquire"},
	{"internal/simx", "Resource", "InUse"},
	{"internal/simx", "Resource", "QueueLen"},
	{"internal/simx", "Resource", "BusyNS"},
	{"internal/simx", "Resource", "UtilizationSince"},
	// simcheck hooks: no-ops in default builds, diagnostic-only
	// allocations under the simcheck tag (not a measured build)
	{"internal/simx", "PoolCheck", "Checkout"},
	{"internal/simx", "PoolCheck", "Fresh"},
	{"internal/simx", "PoolCheck", "Release"},
	{"internal/simx", "PoolCheck", "InUse"},
	// topology address arithmetic: pure field extraction per op
	{"internal/topo", "PPN", "NandAddr"},
	{"internal/topo", "PPN", "Pkg"},
	{"internal/topo", "PPN", "FIMMSlot"},
	{"internal/topo", "PPN", "FIMMID"},
	{"internal/topo", "PPN", "ClusterID"},
	{"internal/topo", "PPN", "Cluster"},
	{"internal/topo", "PPN", "Switch"},
	{"internal/topo", "PPN", "BlockKey"},
	{"internal/topo", "PPN", "Block"},
	{"internal/topo", "PPN", "Die"},
	{"internal/topo", "PPN", "Page"},
	{"internal/topo", "", "PackPPN"},
	{"internal/topo", "", "FIMMFromFlat"},
	{"internal/topo", "Geometry", "ParallelUnitsPerFIMM"},
	{"internal/topo", "Geometry", "TotalFIMMs"},
	{"internal/topo", "Geometry", "TotalClusters"},
	{"internal/topo", "Geometry", "TotalPages"},
	{"internal/topo", "Geometry", "PagesPerFIMM"},
	{"internal/topo", "FIMMID", "Flat"},
	{"internal/topo", "ClusterID", "Flat"},
	{"internal/topo", "Health", "Placeable"},
	{"internal/topo", "Health", "ClusterPlaceable"},
	{"internal/topo", "Health", "FIMM"},
	{"internal/topo", "Health", "Cluster"},
	// unit conversions: pure arithmetic per op
	{"internal/units", "", "ScaleByPages"},
	{"internal/units", "", "BlocksToPages"},
	{"internal/units", "", "TransferTime"},
	{"internal/units", "", "PagesToBytes"},
	{"internal/units", "", "BusBandwidth"},
	{"internal/units", "Blocks", "Int"},
	{"internal/units", "Pages", "Int"},
	{"internal/units", "Pages", "Int64"},
	// FTL mapping bookkeeping invoked per IO. The GC planning surface
	// (PlanGC, AllocateGCMove, CompleteGCErase, Prepopulate, Wear) is
	// deliberately absent: garbage collection runs per reclaimed block,
	// not per event, and its callers are audited //simlint:cold.
	{"internal/ftl", "FTL", "Lookup"},
	{"internal/ftl", "FTL", "LPNOf"},
	{"internal/ftl", "FTL", "ResidentFIMM"},
	{"internal/ftl", "FTL", "FallbackFIMM"},
	{"internal/ftl", "FTL", "AllocateWriteAt"},
	{"internal/ftl", "FTL", "DropMapping"},
	{"internal/ftl", "FTL", "AbortBlock"},
	{"internal/ftl", "FTL", "GCPressure"},
	{"internal/ftl", "FTL", "MinFreeBlocks"},
	{"internal/ftl", "FTL", "Wear"},
	// cluster/array/device accessors used by handlers per event
	{"internal/cluster", "Command", "SetPageAddr"},
	{"internal/cluster", "Endpoint", "ID"},
	{"internal/cluster", "Endpoint", "FIMM"},
	{"internal/cluster", "Endpoint", "QueueFull"},
	{"internal/cluster", "Endpoint", "StalledPerFIMM"},
	{"internal/cluster", "Endpoint", "BusBusyNS"},
	{"internal/cluster", "Endpoint", "BusUtilizationSince"},
	{"internal/cluster", "OpResult", "DeviceLatency"},
	{"internal/array", "Array", "Engine"},
	{"internal/array", "Array", "Endpoint"},
	{"internal/array", "Array", "Config"},
	{"internal/array", "Array", "Health"},
	{"internal/array", "Array", "FTL"},
	{"internal/nand", "Package", "MarkStale"},
	{"internal/nand", "Params", "PagesPerPackage"},
	{"internal/fimm", "FIMM", "Package"},
	{"internal/pcie", "Link", "ReturnCredit"},
	// per-event metric recording (fixed-slot counters)
	{"internal/metrics", "Recorder", "Record"},
	{"internal/metrics", "Recorder", "RecordFailure"},
	{"internal/metrics", "Breakdown", "Add"},
	// registry counter increment: one add to a pre-registered slot
	// (the array's fault counters fire on hot-reachable fault paths)
	{"internal/metrics", "Counter", "Inc"},
	// streaming histogram observation: one bucket increment into a
	// preallocated counts slice (the decision recorder's regret
	// histograms observe on Commit)
	{"internal/metrics", "Histogram", "Observe"},
	// decision flight recorder hooks: nil-receiver-safe, allocation-free
	// by construction (fixed ring + insertion sorts into fixed arrays);
	// the off backend is the nil check these methods open with
	{"internal/decision", "Recorder", "Begin"},
	{"internal/decision", "Recorder", "Candidate"},
	{"internal/decision", "Recorder", "Commit"},
	{"internal/decision", "Recorder", "Cancel"},
	{"internal/trace", "Request", "Validate"},
	// errors.Is walks the wrapped chain without allocating
	{"errors", "", "Is"},
	// container/list: pointer surgery only (PushFront allocates an
	// Element and is deliberately NOT certified)
	{"container/list", "List", "MoveToFront"},
	{"container/list", "List", "Remove"},
	{"container/list", "List", "Len"},
	{"container/list", "List", "Back"},
	// container/heap is the one stdlib dependency of the event loop;
	// Fix/Pop/Push call back into the certified eventHeap methods and
	// perform no allocation themselves (Push's amortized growth lives
	// in eventHeap.Push, audited there).
	{"container/heap", "", "Init"},
	{"container/heap", "", "Push"},
	{"container/heap", "", "Pop"},
	{"container/heap", "", "Fix"},
}

// hotPureStdlib lists stdlib packages whose exported functions neither
// allocate nor call out: pure arithmetic.
var hotPureStdlib = map[string]bool{
	"math":      true,
	"math/bits": true,
}

// hotRegistered composes the full certification table: the explicit
// entries above, every pool acquire/release (the free-list machinery
// runs per event), and every ownership-handoff sink (handlers hand
// pooled objects to these on the hot path).
func hotRegistered() []funcRef {
	out := make([]funcRef, 0, len(hotCertified)+len(handoffSinks)+4*len(poolTable))
	out = append(out, hotCertified...)
	out = append(out, handoffSinks...)
	for _, p := range poolTable {
		out = append(out, p.acquires...)
		out = append(out, p.releases...)
	}
	return out
}

type hotzeroPass struct {
	pass  *analysis.Pass
	graph *callgraph.Graph
	reg   []funcRef
	seen  map[*callgraph.Node]bool
	queue []*callgraph.Node
}

func runHotzero(pass *analysis.Pass) (any, error) {
	if !inPackageSet(pass.Pkg.Path(), hotzeroPackageSuffixes) {
		return nil, nil
	}
	g := callgraph.Build(pass.Pkg, pass.TypesInfo, pass.Files, func(f *ast.File) bool {
		return isTestFile(pass, f.Pos())
	})
	hz := &hotzeroPass{
		pass:  pass,
		graph: g,
		reg:   hotRegistered(),
		seen:  make(map[*callgraph.Node]bool),
	}
	for _, n := range g.Ordered {
		if n.Fn != nil && hz.isRoot(n.Fn) {
			hz.enqueue(n)
		}
	}
	for len(hz.queue) > 0 {
		n := hz.queue[0]
		hz.queue = hz.queue[1:]
		hz.visit(n)
	}
	return nil, nil
}

// isRoot reports whether a declared function starts a hot walk: a
// dispatch-method implementation or a registered certified function.
func (hz *hotzeroPass) isRoot(fn *types.Func) bool {
	if hotDispatchMethods[fn.Name()] {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			return true
		}
	}
	return matchAnyFunc(fn, hz.reg)
}

// enqueue schedules a node for one visit, unless it is pruned by an
// audited //simlint:cold marker.
func (hz *hotzeroPass) enqueue(n *callgraph.Node) {
	if hz.seen[n] {
		return
	}
	hz.seen[n] = true
	if suppressed(hz.pass, n.Pos(), "cold") {
		return
	}
	hz.queue = append(hz.queue, n)
}

// report files one finding unless the site carries an audited
// //simlint:coldalloc marker.
func (hz *hotzeroPass) report(pos token.Pos, format string, args ...any) {
	if suppressed(hz.pass, pos, "coldalloc") {
		return
	}
	hz.pass.Reportf(pos, format, args...)
}

// visit certifies one reachable function body: follow its edges and
// scan it for allocating constructs.
func (hz *hotzeroPass) visit(n *callgraph.Node) {
	exempt := panicRanges(hz.pass.TypesInfo, n.Body())
	hz.scanEdges(n, exempt)
	hz.scanAllocs(n, exempt)
}

// scanEdges follows a node's out-edges: in-package targets join the
// walk; external targets must be certified; dispatch must be through a
// registered method; dynamic calls cannot be certified at all.
func (hz *hotzeroPass) scanEdges(n *callgraph.Node, exempt []posRange) {
	for _, e := range n.Out {
		if inRanges(exempt, e.Site.Pos()) {
			continue
		}
		switch e.Kind {
		case callgraph.Static, callgraph.Ref:
			// A method value binds its receiver into a heap closure
			// (a bare function value or literal reference does not).
			if e.Kind == callgraph.Ref && e.Callee != nil {
				if _, isSel := e.Site.(*ast.SelectorExpr); isSel {
					hz.report(e.Site.Pos(), "hot path: method value %s allocates its bound-receiver closure", e.Callee.Name())
				}
			}
			if e.Node != nil {
				hz.enqueue(e.Node)
				continue
			}
			if e.Callee == nil || hz.certified(e.Callee) {
				continue
			}
			hz.report(e.Site.Pos(), "hot path: call to uncertified function %s (register it in the hotzero tables or audit with //simlint:coldalloc)", qualified(e.Callee))
		case callgraph.Dispatch:
			if _, isSel := e.Site.(*ast.SelectorExpr); isSel {
				hz.report(e.Site.Pos(), "hot path: method value %s allocates its bound-receiver closure", e.Callee.Name())
			}
			if hotDispatchMethods[e.Callee.Name()] || matchAnyFunc(e.Callee, hz.reg) {
				continue
			}
			// Conservative fallback: the concrete callee is unknown, so
			// walk every in-package implementer — and still flag the
			// site, because out-of-package implementers stay unseen.
			for _, impl := range hz.graph.Implementers(e.Callee) {
				hz.enqueue(impl)
			}
			hz.report(e.Site.Pos(), "hot path: interface dispatch through unregistered method %s (register it in hotDispatchMethods or audit with //simlint:coldalloc)", e.Callee.Name())
		case callgraph.Dynamic:
			hz.report(e.Site.Pos(), "hot path: dynamic call through a function value cannot be certified (resolve it statically or audit with //simlint:coldalloc)")
		}
	}
}

// certified reports whether an out-of-graph callee is trusted: a pure
// stdlib function, a registered table entry, or a dispatch-method
// implementation (rooted and certified in its own package's run).
func (hz *hotzeroPass) certified(fn *types.Func) bool {
	pkg := fn.Pkg()
	if pkg == nil {
		return false
	}
	if hotPureStdlib[pkg.Path()] {
		return true
	}
	if matchAnyFunc(fn, hz.reg) {
		return true
	}
	if hotDispatchMethods[fn.Name()] && inPackageSet(pkg.Path(), hotzeroPackageSuffixes) {
		if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
			return true
		}
	}
	return false
}

// qualified renders a callee for diagnostics: "pkg.Fn" or "pkg.T.Fn".
func qualified(fn *types.Func) string {
	name := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		if n, ok := namedType(sig.Recv().Type()); ok {
			name = n.Obj().Name() + "." + name
		}
	}
	if fn.Pkg() != nil {
		return fn.Pkg().Name() + "." + name
	}
	return name
}

// ---- allocation scan ----

// scanAllocs walks one function body (not descending into nested
// function literals — those are separate nodes) and reports every
// construct that may heap-allocate.
func (hz *hotzeroPass) scanAllocs(n *callgraph.Node, exempt []posRange) {
	info := hz.pass.TypesInfo
	sig := nodeSignature(n, info)
	var walk func(ast.Node) bool
	walk = func(nd ast.Node) bool {
		switch x := nd.(type) {
		case *ast.FuncLit:
			// Creating the closure is this node's allocation; the
			// literal's body belongs to the literal's own node.
			if v := capturedLocal(info, hz.pass.Pkg, x); v != nil {
				hz.report(x.Pos(), "hot path: closure captures %s and allocates", v.Name())
			}
			return false

		case *ast.CallExpr:
			if isPanicCall(info, x) {
				// Terminal path: the panic's argument subtree is exempt.
				return false
			}
			hz.callAllocs(x)
			return true

		case *ast.UnaryExpr:
			if x.Op == token.AND {
				if _, ok := unparen(x.X).(*ast.CompositeLit); ok {
					hz.report(x.Pos(), "hot path: &composite literal escapes to the heap")
				}
			}
			return true

		case *ast.CompositeLit:
			if t := info.TypeOf(x); t != nil {
				switch types.Unalias(t).Underlying().(type) {
				case *types.Slice:
					hz.report(x.Pos(), "hot path: slice literal allocates its backing array")
				case *types.Map:
					hz.report(x.Pos(), "hot path: map literal allocates")
				}
			}
			return true

		case *ast.BinaryExpr:
			if x.Op == token.ADD {
				if tv, ok := info.Types[x]; ok && tv.Value == nil && isStringType(tv.Type) {
					hz.report(x.Pos(), "hot path: string concatenation allocates")
				}
			}
			return true

		case *ast.AssignStmt:
			// := infers the variable's type from the operand, so only
			// plain assignment can box into a pre-declared interface.
			if x.Tok == token.ASSIGN && len(x.Lhs) == len(x.Rhs) {
				for i := range x.Lhs {
					hz.boxingAt(info.TypeOf(x.Lhs[i]), x.Rhs[i], "assignment")
				}
			}
			return true

		case *ast.ValueSpec:
			if x.Type != nil {
				dst := info.TypeOf(x.Type)
				for _, v := range x.Values {
					hz.boxingAt(dst, v, "assignment")
				}
			}
			return true

		case *ast.ReturnStmt:
			if sig != nil && len(x.Results) == sig.Results().Len() {
				for i, r := range x.Results {
					hz.boxingAt(sig.Results().At(i).Type(), r, "return")
				}
			}
			return true
		}
		return true
	}
	ast.Inspect(n.Body(), func(nd ast.Node) bool {
		if nd == nil {
			return false
		}
		if inRanges(exempt, nd.Pos()) {
			return false
		}
		return walk(nd)
	})
}

// callAllocs reports the allocations a single call expression implies:
// builtins (new/make/append), conversions (boxing, string<->bytes),
// argument boxing against the callee's signature, and variadic slices.
func (hz *hotzeroPass) callAllocs(call *ast.CallExpr) {
	info := hz.pass.TypesInfo
	fun := unparen(call.Fun)

	// Conversions: T(x).
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		if len(call.Args) != 1 {
			return
		}
		dst := tv.Type
		hz.boxingAt(dst, call.Args[0], "conversion")
		src := info.TypeOf(call.Args[0])
		if stringBytesConversion(dst, src) {
			hz.report(call.Pos(), "hot path: string/[]byte conversion copies and allocates")
		}
		return
	}

	// Builtins.
	if id, ok := fun.(*ast.Ident); ok {
		if _, isB := info.Uses[id].(*types.Builtin); isB {
			switch id.Name {
			case "new":
				hz.report(call.Pos(), "hot path: new allocates")
			case "make":
				hz.report(call.Pos(), "hot path: make allocates")
			case "append":
				if len(call.Args) >= 2 {
					hz.report(call.Pos(), "hot path: append may grow its backing array")
				}
			}
			return
		}
	}

	// Ordinary calls: box-check each argument against the parameter
	// type, and flag the implicit variadic slice.
	sig, ok := types.Unalias(info.TypeOf(call.Fun)).(*types.Signature)
	if !ok {
		return
	}
	np := sig.Params().Len()
	for i, arg := range call.Args {
		var pt types.Type
		switch {
		case sig.Variadic() && i >= np-1:
			if call.Ellipsis.IsValid() {
				pt = sig.Params().At(np - 1).Type()
			} else if st, ok := types.Unalias(sig.Params().At(np - 1).Type()).Underlying().(*types.Slice); ok {
				pt = st.Elem()
			}
		case i < np:
			pt = sig.Params().At(i).Type()
		}
		hz.boxingAt(pt, arg, "argument")
	}
	if sig.Variadic() && !call.Ellipsis.IsValid() && len(call.Args) > np-1 {
		hz.report(call.Pos(), "hot path: variadic call allocates its argument slice")
	}
}

// boxingAt reports interface boxing: dst is an interface and the
// operand is a concrete value whose representation does not fit the
// interface data word. Pointer-shaped operands (pointers, chans, maps,
// funcs) and other interfaces convert without allocating; compile-time
// constants are boxed into static storage by the compiler.
func (hz *hotzeroPass) boxingAt(dst types.Type, src ast.Expr, what string) {
	if dst == nil {
		return
	}
	if _, ok := types.Unalias(dst).Underlying().(*types.Interface); !ok {
		return
	}
	tv, ok := hz.pass.TypesInfo.Types[src]
	if !ok || tv.Type == nil || tv.Value != nil || tv.IsNil() {
		return
	}
	st := types.Unalias(tv.Type)
	switch st.Underlying().(type) {
	case *types.Interface, *types.Pointer, *types.Chan, *types.Map, *types.Signature:
		return
	}
	if b, ok := st.Underlying().(*types.Basic); ok && b.Kind() == types.UnsafePointer {
		return
	}
	hz.report(src.Pos(), "hot path: %s boxes %s into an interface", what, types.TypeString(tv.Type, types.RelativeTo(hz.pass.Pkg)))
}

// ---- small helpers ----

type posRange struct{ from, to token.Pos }

func inRanges(rs []posRange, pos token.Pos) bool {
	for _, r := range rs {
		if pos >= r.from && pos < r.to {
			return true
		}
	}
	return false
}

// panicRanges collects the source ranges of panic(...) calls: code in
// them runs only on terminal paths and is exempt from hot-path rules.
func panicRanges(info *types.Info, body *ast.BlockStmt) []posRange {
	var out []posRange
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if isPanicCall(info, call) {
			out = append(out, posRange{call.Pos(), call.End()})
			return false
		}
		return true
	})
	return out
}

func isPanicCall(info *types.Info, call *ast.CallExpr) bool {
	id, ok := unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "panic" {
		return false
	}
	_, isB := info.Uses[id].(*types.Builtin)
	return isB
}

// nodeSignature returns the signature of the node's function, for
// return-statement boxing checks.
func nodeSignature(n *callgraph.Node, info *types.Info) *types.Signature {
	if n.Fn != nil {
		sig, _ := n.Fn.Type().(*types.Signature)
		return sig
	}
	if tv, ok := info.Types[n.Lit]; ok {
		sig, _ := types.Unalias(tv.Type).(*types.Signature)
		return sig
	}
	return nil
}

// capturedLocal returns a function-local variable (or parameter) of an
// enclosing function that lit's body references, if any: capturing one
// forces the closure (and possibly the variable) onto the heap. A
// literal that touches only its own locals and package-level state is
// a static function value.
func capturedLocal(info *types.Info, pkg *types.Package, lit *ast.FuncLit) *types.Var {
	var captured *types.Var
	ast.Inspect(lit, func(n ast.Node) bool {
		if captured != nil {
			return false
		}
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		v, ok := info.Uses[id].(*types.Var)
		if !ok || v.IsField() {
			return true
		}
		if v.Parent() == nil || v.Parent() == pkg.Scope() || v.Pkg() == nil {
			return true // package-level state is shared, not captured
		}
		if v.Pos() < lit.Pos() || v.Pos() > lit.End() {
			captured = v
			return false
		}
		return true
	})
	return captured
}

func isStringType(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := types.Unalias(t).Underlying().(*types.Basic)
	return ok && b.Info()&types.IsString != 0
}

func isByteOrRuneSlice(t types.Type) bool {
	if t == nil {
		return false
	}
	s, ok := types.Unalias(t).Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := types.Unalias(s.Elem()).Underlying().(*types.Basic)
	return ok && (b.Kind() == types.Uint8 || b.Kind() == types.Int32)
}

func stringBytesConversion(dst, src types.Type) bool {
	return (isStringType(dst) && isByteOrRuneSlice(src)) ||
		(isByteOrRuneSlice(dst) && isStringType(src))
}
