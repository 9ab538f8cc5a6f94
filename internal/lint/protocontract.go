package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// ProtoContract enforces the behavioural contract every sim.Protocol
// implementation owes the engine, statically, over the shared CFG layer:
//
//   - TryLock may return true only on paths that completed the
//     acquisition (e.CompleteLock, possibly via a helper), and false
//     only on paths that left the requester blocked or spinning
//     (BlockLocal / SuspendGlobal / SpinGlobal). A delegating
//     `return p.helper(...)` is checked by recursing into the helper.
//   - Unlock must release or transfer the semaphore on every exit path:
//     clearing holder state, deleting queue bookkeeping, shrinking the
//     held list, or completing the lock for / granting to the next
//     waiter all count. An early return that does none of these is the
//     classic leaked-semaphore bug (the next waiter suspends forever).
//   - Every e.Grant must be matched by an e.MakeReady of the same job on
//     every path, so the EvGrant trace event is always paired with a
//     wakeup. Functions that spawn agents are exempt: the agent model
//     readies the gcs surrogate through SpawnAgent itself.
//   - OnFinish must delete the finished job from every job-keyed map the
//     protocol keeps. The engine calls OnFinish for overload-aborted
//     jobs too (the force-release path), so a surviving entry is state
//     leaked per abort.
//   - Protocol packages must not keep mutable package-level state; all
//     protocol state lives on the Protocol value so concurrent sweeps
//     stay independent. Blank interface-assertion vars are exempt.
//
// The path checks are may-analyses (facts union at joins), which keeps
// them quiet on correct code at the cost of missing a leak that a
// sibling branch happens to cover; the early-return and fall-through
// leaks that occur in practice are exactly what they catch. Helper
// bodies outside the loaded source set cannot be analyzed and are
// trusted. Intentional exceptions — a protocol whose global sections are
// released remotely by an agent — carry //rtlint:allow protocontract
// with the reason.
var ProtoContract = &Analyzer{
	Name:       "protocontract",
	Doc:        "verifies sim.Protocol implementations acquire, block, release and clean up on every CFG path",
	RunProgram: runProtoContract,
}

// protoSimPath is the import path of the package defining the Protocol
// interface and the Engine services the contract is phrased in.
const protoSimPath = "mpcp/internal/sim"

func runProtoContract(pass *Pass) {
	iface := findProtocolInterface(pass.Pkgs)
	if iface == nil {
		return // nothing in scope touches the simulator
	}
	pr := &protoProg{
		pass:       pass,
		funcs:      map[string]*srcFunc{},
		summaries:  map[string]*callFacts{},
		inProgress: map[string]bool{},
		tryChecked: map[string]bool{},
	}
	for _, pkg := range pass.Pkgs {
		inspectFuncs(pkg, func(decl *ast.FuncDecl) {
			if fn, ok := pkg.Info.Defs[decl.Name].(*types.Func); ok {
				pr.funcs[funcKey(fn)] = &srcFunc{pkg: pkg, decl: decl}
			}
		})
	}

	for _, pkg := range pass.Pkgs {
		impls := implementorsOf(pkg, iface)
		if len(impls) == 0 {
			continue
		}
		pr.checkPackageState(pkg)
		for _, decl := range allFuncDecls(pkg) {
			pr.checkGrantPairing(pkg, decl)
		}
		for _, impl := range impls {
			for name, decl := range methodDecls(pkg, impl) {
				switch name {
				case "TryLock":
					if fn, ok := pkg.Info.Defs[decl.Name].(*types.Func); ok {
						pr.checkTryFunc(fn)
					}
				case "Unlock":
					pr.checkUnlock(pkg, decl)
				case "OnFinish":
					pr.checkOnFinish(pkg, impl, decl)
				}
			}
		}
	}
}

// findProtocolInterface locates sim.Protocol among the loaded packages
// or their (transitive) imports.
func findProtocolInterface(pkgs []*Package) *types.Interface {
	seen := map[*types.Package]bool{}
	var find func(p *types.Package) *types.Interface
	find = func(p *types.Package) *types.Interface {
		if p == nil || seen[p] {
			return nil
		}
		seen[p] = true
		if p.Path() == protoSimPath {
			if tn, ok := p.Scope().Lookup("Protocol").(*types.TypeName); ok {
				if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
					return iface
				}
			}
			return nil
		}
		for _, imp := range p.Imports() {
			if iface := find(imp); iface != nil {
				return iface
			}
		}
		return nil
	}
	for _, pkg := range pkgs {
		if pkg.Types == nil {
			continue
		}
		if iface := find(pkg.Types); iface != nil {
			return iface
		}
	}
	return nil
}

// implementorsOf returns the concrete named types declared in pkg that
// implement iface (by value or pointer receiver), in declaration order.
func implementorsOf(pkg *Package, iface *types.Interface) []*types.Named {
	if pkg.Types == nil || pkg.Types.Path() == protoSimPath {
		return nil
	}
	scope := pkg.Types.Scope()
	var out []*types.Named
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok || types.IsInterface(named) {
			continue
		}
		if types.Implements(named, iface) || types.Implements(types.NewPointer(named), iface) {
			out = append(out, named)
		}
	}
	return out
}

// methodDecls maps method name -> declaration for methods declared
// directly on impl (promoted methods are checked on their own type).
func methodDecls(pkg *Package, impl *types.Named) map[string]*ast.FuncDecl {
	out := map[string]*ast.FuncDecl{}
	inspectFuncs(pkg, func(decl *ast.FuncDecl) {
		if decl.Recv == nil {
			return
		}
		fn, ok := pkg.Info.Defs[decl.Name].(*types.Func)
		if !ok {
			return
		}
		recv := fn.Type().(*types.Signature).Recv()
		if recv == nil {
			return
		}
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok && named.Obj() == impl.Obj() {
			out[decl.Name.Name] = decl
		}
	})
	return out
}

func allFuncDecls(pkg *Package) []*ast.FuncDecl {
	var out []*ast.FuncDecl
	inspectFuncs(pkg, func(decl *ast.FuncDecl) { out = append(out, decl) })
	return out
}

type srcFunc struct {
	pkg  *Package
	decl *ast.FuncDecl
}

// callFacts is the transitive may-summary of one function: which
// contract-relevant effects some path through it (and its callees) can
// perform.
type callFacts struct {
	acquire bool // e.CompleteLock
	block   bool // e.BlockLocal / e.SuspendGlobal / e.SpinGlobal
	release bool // holder/busy cleared, delete(), held-list shrink, CompleteLock, Grant
}

type protoProg struct {
	pass       *Pass
	funcs      map[string]*srcFunc
	summaries  map[string]*callFacts
	inProgress map[string]bool
	tryChecked map[string]bool
}

// funcKey names a function by package path, receiver type and name, so
// the source declaration of a callee is found even when the caller's
// type info references the export-data view of the callee's package
// (distinct *types.Func objects for the same function).
func funcKey(fn *types.Func) string {
	key := fn.Name()
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			key = named.Obj().Name() + "." + key
		}
	}
	if fn.Pkg() != nil {
		key = fn.Pkg().Path() + "." + key
	}
	return key
}

// engineService returns the method name when call is a call to one of
// the sim.Engine scheduling services, "" otherwise.
func engineService(info *types.Info, call *ast.CallExpr) string {
	fn := calleeFunc(info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != protoSimPath {
		return ""
	}
	if sig, ok := fn.Type().(*types.Signature); !ok || sig.Recv() == nil {
		return ""
	}
	switch fn.Name() {
	case "CompleteLock", "BlockLocal", "SuspendGlobal", "SpinGlobal", "Grant", "MakeReady", "SpawnAgent":
		return fn.Name()
	}
	return ""
}

// isReleaseStmt recognizes the syntactic release/transfer actions: a
// holder or queue field cleared to nil/false (selector or index LHS), a
// delete() of bookkeeping, or the shrinking-append removal idiom.
func isReleaseStmt(info *types.Info, n ast.Node) bool {
	switch n := n.(type) {
	case *ast.AssignStmt:
		if len(n.Rhs) == 1 {
			if id, ok := n.Rhs[0].(*ast.Ident); ok && (id.Name == "nil" || id.Name == "false") {
				for _, lhs := range n.Lhs {
					switch lhs.(type) {
					case *ast.SelectorExpr, *ast.IndexExpr:
						return true
					}
				}
			}
		}
	case *ast.CallExpr:
		if fn, ok := info.Uses[identOf(n.Fun)].(*types.Builtin); ok {
			switch fn.Name() {
			case "delete":
				return true
			case "append":
				return isShrinkingAppend(n)
			}
		}
	}
	return false
}

func identOf(e ast.Expr) *ast.Ident {
	id, _ := e.(*ast.Ident)
	return id
}

// inspectNode walks one CFG node the way the shallow CFG demands:
// function literals are separate execution contexts and a SelectStmt
// node is only a marker (its clause bodies are their own blocks).
func inspectNode(n ast.Node, fn func(ast.Node) bool) {
	if _, ok := n.(*ast.SelectStmt); ok {
		return
	}
	ast.Inspect(n, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		return fn(m)
	})
}

// summary computes (memoized, cycle-safe) the transitive may-facts of
// fn. Functions without loadable source contribute nothing.
func (pr *protoProg) summary(fn *types.Func) callFacts {
	key := funcKey(fn)
	if s, ok := pr.summaries[key]; ok {
		return *s
	}
	if pr.inProgress[key] {
		return callFacts{}
	}
	sf := pr.funcs[key]
	if sf == nil {
		return callFacts{}
	}
	pr.inProgress[key] = true
	defer delete(pr.inProgress, key)
	var facts callFacts
	inspectNode(sf.decl.Body, func(n ast.Node) bool {
		if isReleaseStmt(sf.pkg.Info, n) {
			facts.release = true
		}
		if call, ok := n.(*ast.CallExpr); ok {
			switch engineService(sf.pkg.Info, call) {
			case "CompleteLock":
				facts.acquire, facts.release = true, true
			case "BlockLocal", "SuspendGlobal", "SpinGlobal":
				facts.block = true
			case "Grant":
				facts.release = true
			case "":
				if callee := calleeFunc(sf.pkg.Info, call); callee != nil && funcKey(callee) != key {
					sub := pr.summary(callee)
					facts.acquire = facts.acquire || sub.acquire
					facts.block = facts.block || sub.block
					facts.release = facts.release || sub.release
				}
			}
		}
		return true
	})
	pr.summaries[key] = &facts
	return facts
}

// pathFact is the per-path may-state for the TryLock and Unlock checks.
// nil marks an unreachable point; facts union at joins.
type pathFact struct {
	acquired, blocked, released bool
}

func joinPathFacts(dst, src *pathFact) *pathFact {
	if src == nil {
		return dst
	}
	if dst == nil {
		c := *src
		return &c
	}
	return &pathFact{
		acquired: dst.acquired || src.acquired,
		blocked:  dst.blocked || src.blocked,
		released: dst.released || src.released,
	}
}

func pathFactsEqual(a, b *pathFact) bool {
	if a == nil || b == nil {
		return a == b
	}
	return *a == *b
}

// applyPathNode advances the fact over one CFG node.
func (pr *protoProg) applyPathNode(pkg *Package, n ast.Node, st *pathFact) {
	inspectNode(n, func(m ast.Node) bool {
		if isReleaseStmt(pkg.Info, m) {
			st.released = true
		}
		if call, ok := m.(*ast.CallExpr); ok {
			switch engineService(pkg.Info, call) {
			case "CompleteLock":
				st.acquired, st.released = true, true
			case "BlockLocal", "SuspendGlobal", "SpinGlobal":
				st.blocked = true
			case "Grant":
				st.released = true
			case "":
				if callee := calleeFunc(pkg.Info, call); callee != nil {
					sub := pr.summary(callee)
					st.acquired = st.acquired || sub.acquire
					st.blocked = st.blocked || sub.block
					st.released = st.released || sub.release
				}
			}
		}
		return true
	})
}

// runPathAnalysis runs the shared may-dataflow over body and calls sink
// for every live block with its entry fact (replay the nodes yourself).
func (pr *protoProg) runPathAnalysis(pkg *Package, body *ast.BlockStmt, sink func(cfg *CFG, blk *Block, entry *pathFact)) {
	cfg := NewCFG(body)
	df := Dataflow[*pathFact]{
		CFG:    cfg,
		Entry:  &pathFact{},
		Bottom: func() *pathFact { return nil },
		Join:   joinPathFacts,
		Equal:  pathFactsEqual,
		Transfer: func(blk *Block, in *pathFact) *pathFact {
			st := *in
			for _, n := range blk.Nodes {
				pr.applyPathNode(pkg, n, &st)
			}
			return &st
		},
	}
	in := df.Run()
	for _, blk := range cfg.Blocks {
		if blk.Live && in[blk.Index] != nil {
			entry := *in[blk.Index]
			sink(cfg, blk, &entry)
		}
	}
}

// checkTryFunc verifies the TryLock return contract for fn and,
// recursively, for every source function it delegates its result to.
func (pr *protoProg) checkTryFunc(fn *types.Func) {
	key := funcKey(fn)
	if pr.tryChecked[key] {
		return
	}
	pr.tryChecked[key] = true
	sf := pr.funcs[key]
	if sf == nil {
		return // body not in the loaded source set: trusted
	}
	name := fn.Name()
	pr.runPathAnalysis(sf.pkg, sf.decl.Body, func(cfg *CFG, blk *Block, st *pathFact) {
		for _, n := range blk.Nodes {
			ret, ok := n.(*ast.ReturnStmt)
			if !ok {
				pr.applyPathNode(sf.pkg, n, st)
				continue
			}
			if len(ret.Results) != 1 {
				continue
			}
			res := ret.Results[0]
			pr.applyPathNode(sf.pkg, res, st)
			switch verdict := tryReturnKind(sf.pkg.Info, res); verdict {
			case "true":
				if !st.acquired {
					pr.pass.Reportf(ret.Pos(), "%s returns true without completing the acquisition (no CompleteLock on this path)", name)
				}
			case "false":
				if !st.blocked {
					pr.pass.Reportf(ret.Pos(), "%s returns false without blocking the requester (no BlockLocal, SuspendGlobal or SpinGlobal on this path)", name)
				}
			case "call":
				if callee := calleeFunc(sf.pkg.Info, res.(*ast.CallExpr)); callee != nil {
					pr.checkTryFunc(callee)
				}
			}
		}
	})
}

// tryReturnKind classifies the returned expression: a constant true or
// false, a delegating call, or something the analysis trusts.
func tryReturnKind(info *types.Info, e ast.Expr) string {
	if tv, ok := info.Types[e]; ok && tv.Value != nil {
		if tv.Value.String() == "true" {
			return "true"
		}
		if tv.Value.String() == "false" {
			return "false"
		}
	}
	if _, ok := e.(*ast.CallExpr); ok {
		return "call"
	}
	return ""
}

// checkUnlock verifies the release contract: every exit path of Unlock
// performs at least one release or transfer action.
func (pr *protoProg) checkUnlock(pkg *Package, decl *ast.FuncDecl) {
	pr.runPathAnalysis(pkg, decl.Body, func(cfg *CFG, blk *Block, st *pathFact) {
		for _, n := range blk.Nodes {
			if ret, ok := n.(*ast.ReturnStmt); ok {
				if !st.released {
					pr.pass.Reportf(ret.Pos(), "Unlock returns without releasing or transferring the semaphore on this path")
				}
				continue
			}
			pr.applyPathNode(pkg, n, st)
		}
		if blk == cfg.FallsOff && !st.released {
			pr.pass.Reportf(decl.Name.Pos(), "Unlock can fall off the end without releasing or transferring the semaphore")
		}
	})
}

// grantFact maps the printed Grant argument to the position of the
// unmatched Grant call. nil marks an unreachable point.
type grantFact map[string]token.Pos

func joinGrantFacts(dst, src grantFact) grantFact {
	if src == nil {
		return dst
	}
	if dst == nil {
		return cloneGrantFact(src)
	}
	merged := cloneGrantFact(dst)
	for k, v := range src {
		if cur, ok := merged[k]; !ok || v < cur {
			merged[k] = v
		}
	}
	return merged
}

func cloneGrantFact(f grantFact) grantFact {
	c := grantFact{}
	for k, v := range f {
		c[k] = v
	}
	return c
}

func grantFactsEqual(a, b grantFact) bool {
	if a == nil || b == nil {
		return a != nil == (b != nil)
	}
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if w, ok := b[k]; !ok || v != w {
			return false
		}
	}
	return true
}

// checkGrantPairing reports Grant calls not matched by a MakeReady of
// the same job on every subsequent path. Functions that spawn agents
// are exempt: SpawnAgent schedules the surrogate itself.
func (pr *protoProg) checkGrantPairing(pkg *Package, decl *ast.FuncDecl) {
	hasGrant, hasSpawn := false, false
	inspectNode(decl.Body, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			switch engineService(pkg.Info, call) {
			case "Grant":
				hasGrant = true
			case "SpawnAgent":
				hasSpawn = true
			}
		}
		return true
	})
	if !hasGrant || hasSpawn {
		return
	}

	apply := func(n ast.Node, st grantFact) {
		inspectNode(n, func(m ast.Node) bool {
			call, ok := m.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			switch engineService(pkg.Info, call) {
			case "Grant":
				st[types.ExprString(call.Args[0])] = call.Pos()
			case "MakeReady":
				delete(st, types.ExprString(call.Args[0]))
			}
			return true
		})
	}

	cfg := NewCFG(decl.Body)
	df := Dataflow[grantFact]{
		CFG:    cfg,
		Entry:  grantFact{},
		Bottom: func() grantFact { return nil },
		Join:   joinGrantFacts,
		Equal:  grantFactsEqual,
		Transfer: func(blk *Block, in grantFact) grantFact {
			st := cloneGrantFact(in)
			for _, n := range blk.Nodes {
				apply(n, st)
			}
			return st
		},
	}
	in := df.Run()

	reported := map[token.Pos]bool{}
	leak := func(st grantFact) {
		keys := make([]string, 0, len(st))
		for k := range st {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			if pos := st[k]; !reported[pos] {
				reported[pos] = true
				pr.pass.Reportf(pos, "Grant(%s) is not always followed by MakeReady(%s); a granted job that is never woken deadlocks its waiters", k, k)
			}
		}
	}
	for _, blk := range cfg.Blocks {
		if !blk.Live || in[blk.Index] == nil {
			continue
		}
		st := cloneGrantFact(in[blk.Index])
		for _, n := range blk.Nodes {
			if _, ok := n.(*ast.ReturnStmt); ok {
				leak(st)
				continue
			}
			apply(n, st)
		}
		if blk == cfg.FallsOff {
			leak(st)
		}
	}
}

// checkOnFinish requires OnFinish to delete the finished job from every
// job-keyed map field of the implementor. The engine routes overload
// aborts through OnFinish, so a surviving entry leaks per aborted job.
func (pr *protoProg) checkOnFinish(pkg *Package, impl *types.Named, decl *ast.FuncDecl) {
	st, ok := impl.Underlying().(*types.Struct)
	if !ok {
		return
	}
	var jobMaps []string
	for i := 0; i < st.NumFields(); i++ {
		f := st.Field(i)
		if m, ok := f.Type().Underlying().(*types.Map); ok && isSimJobPtr(m.Key()) {
			jobMaps = append(jobMaps, f.Name())
		}
	}
	if len(jobMaps) == 0 {
		return
	}
	cleared := map[string]bool{}
	seen := map[string]bool{}
	var walk func(pkg *Package, body *ast.BlockStmt)
	walk = func(pkg *Package, body *ast.BlockStmt) {
		inspectNode(body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			if bi, ok := pkg.Info.Uses[identOf(call.Fun)].(*types.Builtin); ok && bi.Name() == "delete" && len(call.Args) > 0 {
				if sel, ok := call.Args[0].(*ast.SelectorExpr); ok {
					cleared[sel.Sel.Name] = true
				}
				return true
			}
			if callee := calleeFunc(pkg.Info, call); callee != nil && !seen[funcKey(callee)] {
				seen[funcKey(callee)] = true
				if sf := pr.funcs[funcKey(callee)]; sf != nil {
					walk(sf.pkg, sf.decl.Body)
				}
			}
			return true
		})
	}
	walk(pkg, decl.Body)
	for _, name := range jobMaps {
		if !cleared[name] {
			pr.pass.Reportf(decl.Name.Pos(), "OnFinish does not delete from job-keyed map field %s; an overload abort leaks the aborted job's state", name)
		}
	}
}

func isSimJobPtr(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := p.Elem().(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "Job" && obj.Pkg() != nil && obj.Pkg().Path() == protoSimPath
}

// checkPackageState flags mutable package-level state in a package that
// declares a Protocol implementation. Blank vars (interface assertions)
// are exempt; constants are immutable and fine.
func (pr *protoProg) checkPackageState(pkg *Package) {
	for _, f := range pkg.Files {
		for _, d := range f.Decls {
			gd, ok := d.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				vs, ok := spec.(*ast.ValueSpec)
				if !ok {
					continue
				}
				for _, name := range vs.Names {
					if name.Name == "_" {
						continue
					}
					pr.pass.Reportf(name.Pos(), "protocol package declares mutable package-level state: var %s; protocol state must live on the Protocol value", name.Name)
				}
			}
		}
	}
}
