package nand

import (
	"fmt"

	"triplea/internal/simx"
)

// Addr identifies one page inside a package.
//
// Block is a die-level block address; per ONFI even/odd block
// addressing, the block address selects the plane, so Plane must equal
// Block % PlanesPerDie (checked on every operation).
type Addr struct {
	Die   int
	Plane int
	Block int // die-level block address (parity selects the plane)
	Page  int // page index within the block
}

func (a Addr) String() string {
	return fmt.Sprintf("d%d/p%d/b%d/pg%d", a.Die, a.Plane, a.Block, a.Page)
}

// PageState tracks the physical condition of a page.
type PageState uint8

const (
	PageErased PageState = iota // never programmed since last erase
	PageValid                   // programmed, holds live data
	PageStale                   // programmed, data superseded (GC fodder)
)

func (s PageState) String() string {
	switch s {
	case PageErased:
		return "erased"
	case PageValid:
		return "valid"
	case PageStale:
		return "stale"
	}
	return "unknown"
}

// blockState is allocated lazily: a 16 TB array has billions of pages
// and only the touched blocks may cost host memory.
type blockState struct {
	eraseCount int
	nextPage   int // sequential-program pointer
	state      []PageState
}

// Op identifies a NAND command class for statistics.
type Op uint8

const (
	OpRead Op = iota
	OpProgram
	OpErase
)

func (o Op) String() string {
	switch o {
	case OpRead:
		return "read"
	case OpProgram:
		return "program"
	case OpErase:
		return "erase"
	default:
		return "unknown"
	}
}

// Stats aggregates activity on one package.
type Stats struct {
	Reads        uint64
	Programs     uint64
	Erases       uint64
	MultiPlane   uint64 // ops that used the multi-plane command
	CacheHits    uint64 // reads served from the cache register
	BusyNS       simx.Time
	MaxEraseWear int
}

// Done is the completion receiver for array operations. texe is the
// device-observed execution time including die queueing.
type Done interface {
	OnNandDone(texe simx.Time, err error)
}

// Package is one bare NAND flash package. All methods must be called
// from simulation context (inside engine events or before Run).
type Package struct {
	eng    *simx.Engine
	params Params
	dies   []*die

	blocks map[int]*blockState // keyed by flat block id
	freeOp *opState            // recycled operation nodes
	stats  Stats

	// Fault-injection state (fault.go). Nil maps and a zero scale mean
	// a healthy package; the hot paths test exactly that.
	badBlocks  map[int]bool // flat block id: every op fails
	wornBlocks map[int]bool // flat block id: program/erase fail, reads OK
	deadDies   map[int]bool // die index: every op fails
	timeScale  float64      // >0 scales cell times (injected stall)
}

// opState is the pooled per-operation state: it queues for the target
// die (simx.Grantee), rides the cell-time event (simx.Handler), and is
// recycled before the completion receiver runs. addrs is borrowed from
// the caller for the duration of the operation.
type opState struct {
	pk     *Package
	op     Op
	addrs  []Addr
	d      Done
	issued simx.Time
	die    *die
	texe   simx.Time
	next   *opState
	ck     simx.PoolCheck
}

// OnGrant implements simx.Grantee: the die is ours; run the state
// machine and start the cell operation.
func (st *opState) OnGrant(arg uint64, _ simx.Time) {
	pk := st.pk
	// State-machine checks run once the die is granted, so queued
	// sequential programs see the state their predecessors committed.
	if err := pk.checkState(st.op, st.addrs); err != nil {
		st.die.res.Release()
		d := st.d
		pk.recycleOp(st)
		d.OnNandDone(0, err)
		return
	}
	st.texe = pk.execTime(st.op, st.addrs, st.die)
	pk.eng.ScheduleEvent(st.texe, st, 0)
}

// OnEvent implements simx.Handler: the cell time elapsed; commit.
func (st *opState) OnEvent(arg uint64) {
	pk := st.pk
	pk.commit(st.op, st.addrs, st.die)
	pk.stats.BusyNS += st.texe
	st.die.res.Release()
	d, issued := st.d, st.issued
	pk.recycleOp(st)
	// Report device-observed execution time including any die
	// queueing: callers use it for laggard accounting.
	d.OnNandDone(pk.eng.Now()-issued, nil)
}

func (pk *Package) newOp(op Op, addrs []Addr, d Done) *opState {
	st := pk.freeOp
	if st != nil {
		pk.freeOp = st.next
		st.ck.Checkout("nand.opState")
		st.next = nil
	} else {
		st = &opState{pk: pk} //simlint:coldalloc pool miss: opState free-list refill
		st.ck.Fresh("nand.opState")
	}
	st.op, st.addrs, st.d, st.issued = op, addrs, d, pk.eng.Now()
	st.die = pk.dies[addrs[0].Die]
	return st
}

func (pk *Package) recycleOp(st *opState) {
	st.addrs, st.d, st.die = nil, nil, nil
	st.ck.Release("nand.opState")
	st.next = pk.freeOp
	pk.freeOp = st
}

type die struct {
	res *simx.Resource
	// cacheTag remembers the last page latched into the cache register so
	// repeated reads of the hot page skip tR (cache-mode commands).
	cacheTag int64
}

// NewPackage builds a package; invalid params panic (a construction-time
// programming error, not a runtime condition).
func NewPackage(eng *simx.Engine, params Params) *Package {
	if err := params.Validate(); err != nil {
		panic(err)
	}
	pk := &Package{
		eng:    eng,
		params: params,
		dies:   make([]*die, params.DiesPerPackage),
		blocks: make(map[int]*blockState),
	}
	for i := range pk.dies {
		pk.dies[i] = &die{
			res:      simx.NewResource(eng, fmt.Sprintf("die%d", i), 1),
			cacheTag: -1,
		}
	}
	return pk
}

// Params returns the package geometry/timing.
func (pk *Package) Params() Params { return pk.params }

// Stats returns a snapshot of package activity.
func (pk *Package) Stats() Stats {
	s := pk.stats
	//simlint:ordered commutative max over blocks
	for _, bs := range pk.blocks {
		if bs.eraseCount > s.MaxEraseWear {
			s.MaxEraseWear = bs.eraseCount
		}
	}
	return s
}

// DieBusy reports whether the addressed die is currently executing.
func (pk *Package) DieBusy(dieIdx int) bool {
	return pk.dies[dieIdx].res.InUse() > 0
}

// Busy reports whether any die is executing — the package-level
// ready/busy pin (FIMMs wire all packages' R/B# onto one line).
func (pk *Package) Busy() bool {
	for _, d := range pk.dies {
		if d.res.InUse() > 0 {
			return true
		}
	}
	return false
}

func (pk *Package) checkAddr(a Addr) error {
	p := pk.params
	switch {
	case a.Die < 0 || a.Die >= p.DiesPerPackage:
		return fmt.Errorf("nand: die %d out of range [0,%d)", a.Die, p.DiesPerPackage) //simlint:coldalloc error path: invalid address aborts the op
	case a.Plane < 0 || a.Plane >= p.PlanesPerDie:
		return fmt.Errorf("nand: plane %d out of range [0,%d)", a.Plane, p.PlanesPerDie) //simlint:coldalloc error path: invalid address aborts the op
	case a.Block < 0 || a.Block >= p.BlocksPerPlane.Int()*p.PlanesPerDie:
		return fmt.Errorf("nand: block %d out of range [0,%d)", a.Block, p.BlocksPerPlane.Int()*p.PlanesPerDie) //simlint:coldalloc error path: invalid address aborts the op
	case a.Page < 0 || a.Page >= p.PagesPerBlock.Int():
		return fmt.Errorf("nand: page %d out of range [0,%d)", a.Page, p.PagesPerBlock) //simlint:coldalloc error path: invalid address aborts the op
	case a.Plane != a.Block%p.PlanesPerDie:
		return fmt.Errorf("nand: block %d addresses plane %d, not plane %d (even/odd rule)", //simlint:coldalloc error path: invalid address aborts the op
			a.Block, a.Block%p.PlanesPerDie, a.Plane)
	}
	return nil
}

func (pk *Package) flatBlock(a Addr) int {
	p := pk.params
	return a.Die*p.PlanesPerDie*p.BlocksPerPlane.Int() + a.Block
}

func (pk *Package) flatPage(a Addr) int64 {
	return int64(pk.flatBlock(a))*pk.params.PagesPerBlock.Int64() + int64(a.Page)
}

func (pk *Package) block(a Addr) *blockState {
	id := pk.flatBlock(a)
	bs := pk.blocks[id]
	if bs == nil {
		bs = &blockState{state: make([]PageState, pk.params.PagesPerBlock)} //simlint:coldalloc first touch: lazy per-block page-state
		pk.blocks[id] = bs
	}
	return bs
}

// PageStateAt reports the physical state of a page.
func (pk *Package) PageStateAt(a Addr) PageState {
	if err := pk.checkAddr(a); err != nil {
		panic(err)
	}
	bs := pk.blocks[pk.flatBlock(a)]
	if bs == nil {
		return PageErased
	}
	return bs.state[a.Page]
}

// EraseCount reports the wear of the addressed block.
func (pk *Package) EraseCount(a Addr) int {
	bs := pk.blocks[pk.flatBlock(a)]
	if bs == nil {
		return 0
	}
	return bs.eraseCount
}

// ReadOp latches the addressed pages (all on one die) into the data
// register and calls d.OnNandDone with the array-access time charged.
// Multiple addresses exercise the multi-plane command: they must lie on
// distinct planes of the same die and share the block/page offsets'
// parity rule (even/odd block addressing selects the plane).
//
// The completion fires when the data is in the register; moving it
// off-chip is the channel's job (the FIMM model charges tDMA
// separately). addrs is borrowed until then.
func (pk *Package) ReadOp(addrs []Addr, d Done) {
	pk.startArrayOp(OpRead, addrs, d)
}

// ProgramOp writes the addressed pages. NAND constraints are enforced:
// the target pages must be erased and must be the block's next
// sequential page.
func (pk *Package) ProgramOp(addrs []Addr, d Done) {
	pk.startArrayOp(OpProgram, addrs, d)
}

// EraseOp erases the addressed blocks (Page field ignored).
func (pk *Package) EraseOp(addrs []Addr, d Done) {
	pk.startArrayOp(OpErase, addrs, d)
}

// ForcePopulate marks a page as programmed without simulating the
// write. It exists so experiment setup can install a workload's
// pre-existing data footprint (terabytes of cold data the traces read)
// without replaying years of writes; it costs no simulated time.
// The sequential-program pointer advances past the page, so dynamic
// allocation never collides with populated pages.
func (pk *Package) ForcePopulate(a Addr) error {
	if err := pk.checkAddr(a); err != nil {
		return err
	}
	bs := pk.block(a)
	if bs.state[a.Page] != PageErased {
		return fmt.Errorf("nand: ForcePopulate of programmed page %v", a)
	}
	bs.state[a.Page] = PageValid
	if a.Page >= bs.nextPage {
		bs.nextPage = a.Page + 1
	}
	return nil
}

// ForceErase resets a block without simulating the erase. Like
// ForcePopulate it is a bootstrap/emergency fixture (the array uses it
// only on the out-of-space fallback path, never during measured runs);
// it still counts wear.
func (pk *Package) ForceErase(a Addr) error {
	if err := pk.checkAddr(a); err != nil {
		return err
	}
	bs := pk.block(a)
	bs.eraseCount++
	bs.nextPage = 0
	for i := range bs.state {
		bs.state[i] = PageErased
	}
	pk.stats.Erases++
	return nil
}

// MarkStale invalidates a programmed page (an FTL bookkeeping action —
// costs no time on the device).
func (pk *Package) MarkStale(a Addr) error {
	if err := pk.checkAddr(a); err != nil {
		return err
	}
	bs := pk.block(a)
	if bs.state[a.Page] != PageValid {
		return fmt.Errorf("nand: MarkStale on non-valid page %v", a) //simlint:coldalloc error path: malformed multi-plane op
	}
	bs.state[a.Page] = PageStale
	return nil
}

func (pk *Package) validateMultiPlane(op Op, addrs []Addr) error {
	if len(addrs) == 0 {
		return fmt.Errorf("nand: %v with no addresses", op) //simlint:coldalloc error path: malformed multi-plane op
	}
	for _, a := range addrs {
		if err := pk.checkAddr(a); err != nil {
			return err
		}
	}
	first := addrs[0]
	for i, a := range addrs {
		if a.Die != first.Die {
			return fmt.Errorf("nand: multi-plane %v spans dies %d and %d (use die interleaving instead)", //simlint:coldalloc error path: malformed multi-plane op
				op, first.Die, a.Die)
		}
		// A multi-plane op covers at most the planes of one die, so a
		// pairwise scan beats allocating a seen-set per validation.
		for _, b := range addrs[:i] {
			if b.Plane == a.Plane {
				return fmt.Errorf("nand: multi-plane %v addresses plane %d twice", op, a.Plane) //simlint:coldalloc error path: malformed multi-plane op
			}
		}
		if op != OpErase && a.Page != first.Page {
			return fmt.Errorf("nand: multi-plane %v page offsets differ (%d vs %d)", //simlint:coldalloc error path: malformed multi-plane op
				op, first.Page, a.Page)
		}
	}
	return nil
}

func (pk *Package) startArrayOp(op Op, addrs []Addr, d Done) {
	if d == nil {
		panic("nand: nil done receiver")
	}
	if len(addrs) == 0 {
		d.OnNandDone(0, fmt.Errorf("nand: %v with no addresses", op)) //simlint:coldalloc error path: malformed multi-plane op
		return
	}
	if len(addrs) > 1 {
		if err := pk.validateMultiPlane(op, addrs); err != nil {
			d.OnNandDone(0, err)
			return
		}
		pk.stats.MultiPlane++
	} else if err := pk.checkAddr(addrs[0]); err != nil {
		d.OnNandDone(0, err)
		return
	}

	st := pk.newOp(op, addrs, d)
	st.die.res.AcquireG(st, 0)
}

func (pk *Package) checkState(op Op, addrs []Addr) error {
	if pk.badBlocks != nil || pk.wornBlocks != nil || pk.deadDies != nil {
		if err := pk.checkFaults(op, addrs); err != nil {
			return err
		}
	}
	switch op {
	case OpProgram:
		for _, a := range addrs {
			bs := pk.block(a)
			if bs.state[a.Page] != PageErased {
				return fmt.Errorf("nand: program of non-erased page %v", a) //simlint:coldalloc error path: state-machine violation
			}
			if a.Page != bs.nextPage {
				return fmt.Errorf("nand: out-of-order program %v (next is page %d)", a, bs.nextPage) //simlint:coldalloc error path: state-machine violation
			}
		}
	case OpRead:
		for _, a := range addrs {
			bs := pk.blocks[pk.flatBlock(a)]
			if bs == nil || bs.state[a.Page] == PageErased {
				return fmt.Errorf("nand: read of erased page %v", a) //simlint:coldalloc error path: state-machine violation
			}
		}
	case OpErase:
		// No state precondition: erasing an erased or partly programmed
		// block is legal NAND behaviour.
	}
	return nil
}

func (pk *Package) execTime(op Op, addrs []Addr, d *die) simx.Time {
	t := pk.baseExecTime(op, addrs, d)
	if pk.timeScale > 0 {
		t = simx.Time(float64(t) * pk.timeScale)
	}
	return t
}

func (pk *Package) baseExecTime(op Op, addrs []Addr, d *die) simx.Time {
	p := pk.params
	base := p.TCmdOverhead
	switch op {
	case OpRead:
		if p.CacheOK && len(addrs) == 1 && d.cacheTag == pk.flatPage(addrs[0]) {
			pk.stats.CacheHits++
			return base // data already latched in the cache register
		}
		return base + p.TRead + p.TECCPerPage
	case OpProgram:
		return base + p.TProg + p.TECCPerPage
	case OpErase:
		return base + p.TErase
	}
	panic("nand: unknown op")
}

func (pk *Package) commit(op Op, addrs []Addr, d *die) {
	switch op {
	case OpRead:
		pk.stats.Reads += uint64(len(addrs))
		if len(addrs) == 1 {
			d.cacheTag = pk.flatPage(addrs[0])
		} else {
			d.cacheTag = -1
		}
	case OpProgram:
		pk.stats.Programs += uint64(len(addrs))
		for _, a := range addrs {
			bs := pk.block(a)
			bs.state[a.Page] = PageValid
			bs.nextPage = a.Page + 1
		}
		d.cacheTag = -1
	case OpErase:
		pk.stats.Erases += uint64(len(addrs))
		for _, a := range addrs {
			bs := pk.block(a)
			bs.eraseCount++
			bs.nextPage = 0
			for i := range bs.state {
				bs.state[i] = PageErased
			}
		}
		d.cacheTag = -1
	}
}
