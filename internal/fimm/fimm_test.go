package fimm

import (
	"testing"
	"testing/quick"

	"triplea/internal/nand"
	"triplea/internal/simx"
	"triplea/internal/units"
)

func testParams() Params {
	p := DefaultParams()
	p.NumPackages = 2
	p.Nand.BlocksPerPlane = 8
	p.Nand.PagesPerBlock = 4
	return p
}

func TestDefaultParams(t *testing.T) {
	p := DefaultParams()
	if err := p.Validate(); err != nil {
		t.Fatalf("DefaultParams invalid: %v", err)
	}
	// 8 packages x 8 GiB = 64 GiB, the paper's FIMM capacity.
	want := 64 * units.GiB
	if got := p.CapacityBytes(); got != want {
		t.Errorf("CapacityBytes = %d, want %d (64 GiB)", got, want)
	}
	// 16 pins at 400 MHz DDR = 1.6 GB/s; 4 KiB page = 2560 ns.
	if got := p.PageTransferTime(); got != 2560 {
		t.Errorf("PageTransferTime = %v, want 2560ns", got)
	}
	if got := p.PageCount(); got != units.BytesToPages(want, 4*units.KiB) {
		t.Errorf("PageCount = %d, want %d", got, units.BytesToPages(want, 4*units.KiB))
	}
}

func TestParamsValidation(t *testing.T) {
	for _, mod := range []func(*Params){
		func(p *Params) { p.NumPackages = 0 },
		func(p *Params) { p.ChannelPins = 7 },
		func(p *Params) { p.ChannelMHz = 0 },
		func(p *Params) { p.Nand.PageSizeBytes = 0 },
	} {
		p := DefaultParams()
		mod(&p)
		if p.Validate() == nil {
			t.Errorf("Validate accepted %+v", p)
		}
	}
}

func programOne(t *testing.T, eng *simx.Engine, f *FIMM, pkg int, a nand.Addr) {
	t.Helper()
	program(f, pkg, []nand.Addr{a}, func(r Result) {
		if r.Err != nil {
			t.Fatalf("program %v: %v", a, r.Err)
		}
	})
	eng.Run()
}

func TestReadTimingDecomposition(t *testing.T) {
	eng := simx.NewEngine()
	p := testParams()
	f := New(eng, p)
	a := nand.Addr{}
	programOne(t, eng, f, 0, a)

	var r Result
	start := eng.Now()
	read(f, 0, []nand.Addr{a}, func(res Result) { r = res })
	eng.Run()

	n := p.Nand
	wantCell := n.TCmdOverhead + n.TRead + n.TECCPerPage
	if r.Err != nil {
		t.Fatalf("read: %v", r.Err)
	}
	if r.Texe != wantCell {
		t.Errorf("Texe = %v, want %v", r.Texe, wantCell)
	}
	if r.StorageWait != 0 || r.ChannelWait != 0 {
		t.Errorf("unexpected waits on idle module: %+v", r)
	}
	if r.ChannelXfer != p.PageTransferTime() {
		t.Errorf("ChannelXfer = %v, want %v", r.ChannelXfer, p.PageTransferTime())
	}
	if got := eng.Now() - start; got != r.Total() {
		t.Errorf("elapsed %v != Result.Total %v", got, r.Total())
	}
}

func TestChannelSerializesAcrossPackages(t *testing.T) {
	eng := simx.NewEngine()
	p := testParams()
	f := New(eng, p)
	a := nand.Addr{}
	programOne(t, eng, f, 0, a)
	programOne(t, eng, f, 1, a)

	// Two reads on different packages: cell reads overlap (independent
	// dies), channel transfers serialize.
	var r0, r1 Result
	read(f, 0, []nand.Addr{a}, func(r Result) { r0 = r })
	read(f, 1, []nand.Addr{a}, func(r Result) { r1 = r })
	eng.Run()

	if r0.Err != nil || r1.Err != nil {
		t.Fatalf("reads failed: %v %v", r0.Err, r1.Err)
	}
	if r0.ChannelWait+r1.ChannelWait != p.PageTransferTime() {
		t.Errorf("one transfer should wait a full page slot: %v + %v, want total %v",
			r0.ChannelWait, r1.ChannelWait, p.PageTransferTime())
	}
	// Two setup programs + two reads = four page transfers total.
	if got := f.Stats().ChannelBusy; got != 4*p.PageTransferTime() {
		t.Errorf("channel busy %v, want %v", got, 4*p.PageTransferTime())
	}
}

func TestStorageContentionVisible(t *testing.T) {
	eng := simx.NewEngine()
	p := testParams()
	p.Nand.CacheOK = false
	f := New(eng, p)
	// Two pages in the same block (same die): reads serialize on the die.
	a0 := nand.Addr{Page: 0}
	a1 := nand.Addr{Page: 1}
	programOne(t, eng, f, 0, a0)
	programOne(t, eng, f, 0, a1)

	var r0, r1 Result
	read(f, 0, []nand.Addr{a0}, func(r Result) { r0 = r })
	read(f, 0, []nand.Addr{a1}, func(r Result) { r1 = r })
	eng.Run()

	if r0.StorageWait != 0 {
		t.Errorf("first read StorageWait = %v, want 0", r0.StorageWait)
	}
	if r1.StorageWait != r1.Texe {
		t.Errorf("second read should wait one full cell read: wait %v, texe %v",
			r1.StorageWait, r1.Texe)
	}
}

func TestProgramChannelFirst(t *testing.T) {
	eng := simx.NewEngine()
	p := testParams()
	f := New(eng, p)
	var r Result
	start := eng.Now()
	program(f, 0, []nand.Addr{{}}, func(res Result) { r = res })
	eng.Run()
	if r.Err != nil {
		t.Fatalf("program: %v", r.Err)
	}
	n := p.Nand
	want := p.PageTransferTime() + n.TCmdOverhead + n.TProg + n.TECCPerPage
	if got := eng.Now() - start; got != want {
		t.Errorf("program elapsed %v, want %v", got, want)
	}
}

func TestEraseNoChannel(t *testing.T) {
	eng := simx.NewEngine()
	p := testParams()
	f := New(eng, p)
	var r Result
	erase(f, 0, []nand.Addr{{}}, func(res Result) { r = res })
	eng.Run()
	if r.Err != nil {
		t.Fatalf("erase: %v", r.Err)
	}
	if r.ChannelXfer != 0 || r.ChannelWait != 0 {
		t.Errorf("erase moved data: %+v", r)
	}
	if f.Stats().Erases != 1 || f.Stats().TotalErases != 1 {
		t.Errorf("stats = %+v", f.Stats())
	}
}

func TestErrorsPropagate(t *testing.T) {
	eng := simx.NewEngine()
	f := New(eng, testParams())
	var r Result
	read(f, 0, []nand.Addr{{}}, func(res Result) { r = res }) // erased page
	eng.Run()
	if r.Err == nil {
		t.Error("read of erased page did not error")
	}
	read(f, 99, []nand.Addr{{}}, func(res Result) { r = res })
	eng.Run()
	if r.Err == nil {
		t.Error("out-of-range package did not error")
	}
	program(f, -1, []nand.Addr{{}}, func(res Result) { r = res })
	eng.Run()
	if r.Err == nil {
		t.Error("negative package did not error")
	}
	erase(f, 2, []nand.Addr{{}}, func(res Result) { r = res })
	eng.Run()
	if r.Err == nil {
		t.Error("erase out-of-range package did not error")
	}
}

func TestBusyLine(t *testing.T) {
	eng := simx.NewEngine()
	f := New(eng, testParams())
	if f.Busy() {
		t.Error("fresh FIMM busy")
	}
	program(f, 0, []nand.Addr{{}}, func(Result) {})
	if !f.Busy() {
		t.Error("FIMM idle during program")
	}
	eng.Run()
	if f.Busy() {
		t.Error("FIMM busy after completion")
	}
}

func TestChannelUtilization(t *testing.T) {
	eng := simx.NewEngine()
	p := testParams()
	f := New(eng, p)
	programOne(t, eng, f, 0, nand.Addr{})
	base := eng.Now()
	busy0 := f.ChannelBusyNS()
	read(f, 0, []nand.Addr{{}}, func(Result) {})
	eng.Run()
	u := f.ChannelUtilizationSince(base, busy0)
	elapsed := eng.Now() - base
	want := float64(p.PageTransferTime()) / float64(elapsed)
	if u != want {
		t.Errorf("utilization = %v, want %v", u, want)
	}
}

func TestBytesMovedAccounting(t *testing.T) {
	eng := simx.NewEngine()
	p := testParams()
	f := New(eng, p)
	a := nand.Addr{}
	programOne(t, eng, f, 0, a)
	read(f, 0, []nand.Addr{a}, func(Result) {})
	eng.Run()
	want := 2 * p.Nand.PageSizeBytes // one program + one read
	if got := f.Stats().BytesMoved; got != want {
		t.Errorf("BytesMoved = %d, want %d", got, want)
	}
}

func TestSplitDeviceTime(t *testing.T) {
	if w, c := splitDeviceTime(100, 60); w != 40 || c != 60 {
		t.Errorf("splitDeviceTime(100,60) = %v,%v", w, c)
	}
	if w, c := splitDeviceTime(30, 60); w != 0 || c != 30 {
		t.Errorf("splitDeviceTime(30,60) = %v,%v", w, c)
	}
}

// Property: total elapsed for k sequential reads of the same programmed
// page equals the sum of the per-read Totals (no hidden time).
func TestPropertyResultTotalsAccountElapsed(t *testing.T) {
	f := func(k uint8) bool {
		n := int(k%8) + 1
		eng := simx.NewEngine()
		p := testParams()
		fm := New(eng, p)
		program(fm, 0, []nand.Addr{{}}, func(Result) {})
		eng.Run()
		start := eng.Now()
		var sum simx.Time
		var run func(i int)
		run = func(i int) {
			if i == n {
				return
			}
			read(fm, 0, []nand.Addr{{}}, func(r Result) {
				if r.Err != nil {
					t.Fatal(r.Err)
				}
				sum += r.Total()
				run(i + 1)
			})
		}
		run(0)
		eng.Run()
		return eng.Now()-start == sum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestFIMMAccessors(t *testing.T) {
	eng := simx.NewEngine()
	p := testParams()
	f := New(eng, p)
	if f.Params().NumPackages != p.NumPackages || f.NumPackages() != p.NumPackages {
		t.Error("params accessors disagree")
	}
	if f.Package(0) == nil {
		t.Error("nil package")
	}
	if f.ChannelQueueLen() != 0 {
		t.Errorf("fresh channel queue = %d", f.ChannelQueueLen())
	}
}

func read(f *FIMM, pkg int, addrs []nand.Addr, done func(Result)) {
	f.ReadOp(pkg, addrs, DoneFunc(done))
}

func program(f *FIMM, pkg int, addrs []nand.Addr, done func(Result)) {
	f.ProgramOp(pkg, addrs, DoneFunc(done))
}

func erase(f *FIMM, pkg int, addrs []nand.Addr, done func(Result)) {
	f.EraseOp(pkg, addrs, DoneFunc(done))
}
