package mem_test

import (
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"tm3270/internal/config"
	"tm3270/internal/mem"
)

func TestFuncBigEndian(t *testing.T) {
	m := mem.NewFunc()
	m.Store(0x100, 4, 0x11223344)
	if m.ByteAt(0x100) != 0x11 || m.ByteAt(0x103) != 0x44 {
		t.Error("stores must be big-endian")
	}
	if got := m.Load(0x101, 2); got != 0x2233 {
		t.Errorf("non-aligned 16-bit load = %#x", got)
	}
	if got := m.Load(0x0fe, 8); got != 0x0000112233440000 {
		t.Errorf("8-byte straddling load = %#x", got)
	}
}

// TestFuncDefinedPerByte: write-validity is tracked per byte, not per
// page — a written byte's neighbours on the same page stay undefined
// until individually written. This is the granularity the reference
// model uses, and strict mode in the pipeline model must match it.
func TestFuncDefinedPerByte(t *testing.T) {
	m := mem.NewFunc()
	if m.Defined(0x2000, 1) {
		t.Error("empty image must have no defined bytes")
	}
	m.Store(0x2004, 4, 0xdeadbeef)
	if !m.Defined(0x2004, 4) {
		t.Error("stored bytes must be defined")
	}
	if m.Defined(0x2003, 1) || m.Defined(0x2008, 1) {
		t.Error("neighbours of a store on the same page must stay undefined")
	}
	if m.Defined(0x2003, 4) || m.Defined(0x2006, 4) {
		t.Error("accesses straddling an undefined byte must report undefined")
	}
	if !m.Mapped(0x2000, 1) {
		t.Error("the page holding a written byte is mapped (page-granular view)")
	}
	// A write straddling a page boundary defines bytes on both pages.
	m.Store(0x2fff, 2, 0x1234)
	if !m.Defined(0x2fff, 2) {
		t.Error("page-straddling store must define both bytes")
	}
	if m.Defined(0x3001, 1) {
		t.Error("byte past the straddling store must stay undefined")
	}
}

func TestFuncRoundTripProperty(t *testing.T) {
	m := mem.NewFunc()
	f := func(addr uint32, v uint64, nRaw uint8) bool {
		n := int(nRaw%8) + 1
		mask := ^uint64(0)
		if n < 8 {
			mask = 1<<(8*n) - 1
		}
		m.Store(addr, n, v)
		return m.Load(addr, n) == v&mask
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestFuncSparsePagesReadZero(t *testing.T) {
	m := mem.NewFunc()
	for _, addr := range []uint32{0, 0xffffffff, 0x8000_0000, 0x1234_5678} {
		if m.ByteAt(addr) != 0 {
			t.Errorf("untouched byte at %#x reads nonzero", addr)
		}
	}
}

// TestFuncZeroValue: the zero Func is an empty image, usable without
// NewFunc.
func TestFuncZeroValue(t *testing.T) {
	var m mem.Func
	if m.ByteAt(0x1234) != 0 || m.Load(0xffff_fffc, 8) != 0 {
		t.Error("zero Func must read as zero")
	}
	if m.Mapped(0, 1) || m.Defined(0, 1) || len(m.PageAddrs()) != 0 {
		t.Error("zero Func must have no pages")
	}
	if _, diff := mem.Diff(&m, mem.NewFunc()); diff {
		t.Error("zero Func must equal an empty image")
	}
	m.Store(0x40, 2, 0xbeef)
	if m.Load(0x40, 2) != 0xbeef || !m.Defined(0x40, 2) {
		t.Error("zero Func must accept stores")
	}
}

// TestFuncAddressExtremes: the first and the last page of the address
// space are ordinary pages.
func TestFuncAddressExtremes(t *testing.T) {
	m := mem.NewFunc()
	m.Store(0, 4, 0x01020304)
	m.Store(0xffff_f000, 4, 0x05060708)
	m.SetByte(0xffff_ffff, 0x09)
	if m.Load(0, 4) != 0x01020304 || m.Load(0xffff_f000, 4) != 0x05060708 || m.ByteAt(0xffff_ffff) != 0x09 {
		t.Error("bytes at the ends of the address space did not round-trip")
	}
	if got := m.PageAddrs(); !slices.Equal(got, []uint32{0, 0xffff_f000}) {
		t.Errorf("PageAddrs = %#x, want [0 0xfffff000]", got)
	}
}

// TestFuncWrapAround: an access that runs past 0xffffffff continues at
// address 0, for loads, stores and the page-granular Mapped check.
func TestFuncWrapAround(t *testing.T) {
	m := mem.NewFunc()
	if m.Mapped(0xffff_fffe, 4) {
		t.Error("wrapping range over empty pages reported mapped")
	}
	m.Store(0xffff_fffe, 4, 0xa1b2c3d4)
	if m.ByteAt(0xffff_ffff) != 0xb2 || m.ByteAt(0) != 0xc3 || m.ByteAt(1) != 0xd4 {
		t.Error("wrapping store must continue at address 0")
	}
	if got := m.Load(0xffff_fffe, 4); got != 0xa1b2c3d4 {
		t.Errorf("wrapping load = %#x", got)
	}
	if !m.Mapped(0xffff_fffe, 4) || !m.Defined(0xffff_fffe, 4) {
		t.Error("wrapping range over written bytes must be mapped and defined")
	}
	m2 := mem.NewFunc()
	m2.SetByte(0xffff_ffff, 1)
	if m2.Mapped(0xffff_ffff, 2) {
		t.Error("wrap onto an unpopulated page 0 reported mapped")
	}
}

// TestFuncPageAddrsAscending: pages come back in ascending order across
// directory entries, whatever the order they were populated in.
func TestFuncPageAddrsAscending(t *testing.T) {
	m := mem.NewFunc()
	want := []uint32{0x0000_1000, 0x003f_f000, 0x0040_0000, 0x0a00_0000, 0x8000_0000}
	for _, i := range []int{3, 0, 4, 2, 1, 3} {
		m.SetByte(want[i]+7, 1)
	}
	if got := m.PageAddrs(); !slices.Equal(got, want) {
		t.Errorf("PageAddrs = %#x, want %#x", got, want)
	}
}

// TestDiffLowestAddress: with differences on two pages, Diff reports
// the lower address, every time.
func TestDiffLowestAddress(t *testing.T) {
	a, b := mem.NewFunc(), mem.NewFunc()
	for _, pa := range []uint32{0x1000, 0x5000, 0x0200_0000, 0x9000_0000} {
		a.SetByte(pa, 1)
		b.SetByte(pa, 1)
	}
	a.SetByte(0x9000_0010, 2)
	a.SetByte(0x5020, 3)
	b.SetByte(0x0200_0040, 4)
	for i := 0; i < 100; i++ {
		if addr, diff := mem.Diff(a, b); !diff || addr != 0x5020 {
			t.Fatalf("call %d: Diff = %#x, %v; want 0x5020", i, addr, diff)
		}
	}
	ignore := func(addr uint32) bool { return addr == 0x5020 }
	if addr, _ := mem.DiffIgnore(a, b, ignore); addr != 0x0200_0040 {
		t.Errorf("DiffIgnore = %#x, want 0x2000040", addr)
	}
}

// TestFuncConcurrentReaders: any number of goroutines may read one
// image that nobody writes (run under -race).
func TestFuncConcurrentReaders(t *testing.T) {
	m := mem.NewFunc()
	for pa := uint32(0); pa < 8; pa++ {
		m.Store(pa<<22|0x3ffc, 8, 0x0102030405060708*uint64(pa+1))
	}
	other := mem.NewFunc()
	for _, pa := range m.PageAddrs() {
		other.WriteBytes(pa, m.ReadBytes(pa, 1<<12))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				pa := uint32(i%8) << 22
				want := 0x0102030405060708 * uint64(i%8+1)
				if m.Load(pa|0x3ffc, 8) != want || m.ByteAt(pa|0x3fff) != byte(want>>32) || !m.Defined(pa|0x3ffc, 8) {
					t.Error("concurrent read saw the wrong image")
					return
				}
				if _, diff := mem.Diff(m, other); diff {
					t.Error("concurrent Diff of equal images differs")
					return
				}
			}
		}()
	}
	wg.Wait()
}

// BenchmarkByteAtTwoPages alternates between two pages, the access
// pattern of the motion-estimation check (current and reference frame).
func BenchmarkByteAtTwoPages(b *testing.B) {
	const cur, ref = 0x0a00_0000, 0x0a80_0680
	m := mem.NewFunc()
	for i := uint32(0); i < 1<<12; i++ {
		m.SetByte(cur+i, byte(i))
		m.SetByte(ref+i, byte(i*3))
	}
	b.ReportAllocs()
	b.ResetTimer()
	var sum int
	for i := 0; i < b.N; i++ {
		off := uint32(i) & (1<<12 - 1)
		sum += int(m.ByteAt(cur+off)) - int(m.ByteAt(ref+off))
	}
	sink = sum
}

var sink int

func TestBIUTimingShape(t *testing.T) {
	tgt := config.TM3270()
	b := mem.NewBIU(&tgt)
	// A read's completion includes the first-access latency plus the
	// transfer; larger lines take longer.
	d64 := b.Read(&tgt, 0, 64, false)
	if d64 <= int64(tgt.MemLatencyCycles()) {
		t.Errorf("64B read done at %d, must exceed the %d-cycle latency", d64, tgt.MemLatencyCycles())
	}
	b2 := mem.NewBIU(&tgt)
	d128 := b2.Read(&tgt, 0, 128, false)
	if d128 <= d64 {
		t.Errorf("128B (%d) not slower than 64B (%d)", d128, d64)
	}
	// Writes occupy the bus but complete without the access latency.
	b3 := mem.NewBIU(&tgt)
	w := b3.Write(&tgt, 0, 128)
	if w >= d128 {
		t.Errorf("write completion %d should beat read %d (no CAS latency)", w, d128)
	}
	if b3.BytesWritten != 128 || b3.Writes != 1 {
		t.Error("write accounting wrong")
	}
}

func TestBIUBackToBackOccupancy(t *testing.T) {
	tgt := config.TM3270()
	b := mem.NewBIU(&tgt)
	var last int64
	for i := 0; i < 8; i++ {
		done := b.Read(&tgt, 0, 128, i%2 == 0)
		if done <= last {
			t.Fatalf("transfer %d done at %d, not after previous %d", i, done, last)
		}
		last = done
	}
	if b.DemandReads != 4 || b.PrefetchRead != 4 {
		t.Errorf("read classification: %d demand, %d prefetch", b.DemandReads, b.PrefetchRead)
	}
	if b.TotalBytes() != 8*128 {
		t.Errorf("total bytes %d", b.TotalBytes())
	}
	// Issuing after the bus drains starts immediately (BusyUntil moves).
	if b.BusyUntil() <= 0 {
		t.Error("occupancy horizon not tracked")
	}
}
