// Package mem provides the memory-system substrates: the functional
// (value-holding) memory image and the DDR SDRAM timing model behind the
// processor's bus interface unit.
package mem

// pageBits selects a 4 KB page granularity for the sparse image.
const pageBits = 12

// LoadFault observes (and may corrupt) the value returned by every
// functional load. Fault injectors implement it; a nil Fault field is
// the fault-free fast path.
type LoadFault interface {
	// TapLoad receives the loaded value and returns the value the
	// processor actually sees.
	TapLoad(addr uint32, n int, v uint64) uint64
}

// page is one 4 KB page with a per-byte write-validity bitmap. The
// TM3270's allocate-on-write-miss data cache tracks validity per byte
// (Section 2.3); the functional image keeps the same granularity so
// strict mode can flag reads of individual never-written bytes — the
// same semantics as the reference model's memory, which the strict
// co-simulation test holds the two models to.
type page struct {
	data  [1 << pageBits]byte
	valid [1 << (pageBits - 3)]byte
}

// Radix-table geometry: a 32-bit address splits into a directory
// index, a leaf index and a page offset.
const (
	dirBits  = 10
	leafBits = 32 - dirBits - pageBits
)

// leaf is one second-level table: the pages of a 4 MB span.
type leaf [1 << leafBits]*page

// Func is a sparse functional memory image over the full 32-bit address
// space. All multi-byte accesses are big-endian and may be non-aligned,
// matching the ISA's memory semantics. The zero value is an empty image
// reading as zero everywhere.
//
// Pages are found through a two-level radix table, so a lookup is two
// indexed loads and a read never writes to the Func. Any number of
// goroutines may read one Func concurrently (a Fault tap, which sees
// every Load, must allow that too); a writer — Store, SetByte,
// WriteBytes, FlipBit — needs exclusive access.
type Func struct {
	dir    [1 << dirBits]*leaf
	npages int // populated pages

	// Fault, when non-nil, taps every Load (fault injection).
	Fault LoadFault
}

// NewFunc returns an empty memory image.
func NewFunc() *Func {
	return new(Func)
}

func (m *Func) page(addr uint32, create bool) *page {
	l := m.dir[addr>>(32-dirBits)]
	if l == nil {
		if !create {
			return nil
		}
		l = new(leaf)
		m.dir[addr>>(32-dirBits)] = l
	}
	li := addr >> pageBits & (1<<leafBits - 1)
	p := l[li]
	if p == nil && create {
		p = new(page)
		l[li] = p
		m.npages++
	}
	return p
}

// Mapped reports whether every byte of [addr, addr+n) lies on a page
// that has been written at least once (page-granular; see Defined for
// the per-byte check strict mode uses).
func (m *Func) Mapped(addr uint32, n int) bool {
	if n < 1 {
		n = 1
	}
	first := addr >> pageBits
	last := (addr + uint32(n) - 1) >> pageBits
	if last < first {
		// The access wraps the 32-bit address space.
		return m.Mapped(addr, int(-addr)) && m.Mapped(0, n-int(-addr))
	}
	for idx := first; idx <= last; idx++ {
		if m.page(idx<<pageBits, false) == nil {
			return false
		}
	}
	return true
}

// Defined reports whether every byte of [addr, addr+n) has been written
// at least once. The trap model uses it to turn reads of never-written
// bytes into diagnosable faults instead of silent zeroes, at the same
// per-byte granularity as the reference model.
func (m *Func) Defined(addr uint32, n int) bool {
	if n < 1 {
		n = 1
	}
	for i := 0; i < n; i++ {
		a := addr + uint32(i)
		p := m.page(a, false)
		if p == nil {
			return false
		}
		off := a & (1<<pageBits - 1)
		if p.valid[off/8]&(1<<(off%8)) == 0 {
			return false
		}
	}
	return true
}

// PageAddrs returns the base addresses of all populated pages in
// ascending order, the order of the radix table walk.
func (m *Func) PageAddrs() []uint32 {
	out := make([]uint32, 0, m.npages)
	for di, l := range &m.dir {
		if l == nil {
			continue
		}
		for li, p := range l {
			if p != nil {
				out = append(out, uint32(di)<<(32-dirBits)|uint32(li)<<pageBits)
			}
		}
	}
	return out
}

// ByteAt returns the byte at addr.
func (m *Func) ByteAt(addr uint32) byte {
	if p := m.page(addr, false); p != nil {
		return p.data[addr&(1<<pageBits-1)]
	}
	return 0
}

// SetByte sets the byte at addr and marks it written.
func (m *Func) SetByte(addr uint32, v byte) {
	p := m.page(addr, true)
	off := addr & (1<<pageBits - 1)
	p.data[off] = v
	p.valid[off/8] |= 1 << (off % 8)
}

// FlipBit inverts one bit of the byte at addr (fault injection).
func (m *Func) FlipBit(addr uint32, bit uint) {
	m.SetByte(addr, m.ByteAt(addr)^(1<<(bit&7)))
}

// Load implements isa.Memory: n bytes (1..8) big-endian starting at addr.
func (m *Func) Load(addr uint32, n int) uint64 {
	var v uint64
	off := addr & (1<<pageBits - 1)
	if int(off)+n <= 1<<pageBits {
		// The access stays on one page: resolve it once.
		if p := m.page(addr, false); p != nil {
			for i := 0; i < n; i++ {
				v = v<<8 | uint64(p.data[off+uint32(i)])
			}
		}
	} else {
		for i := 0; i < n; i++ {
			v = v<<8 | uint64(m.ByteAt(addr+uint32(i)))
		}
	}
	if m.Fault != nil {
		v = m.Fault.TapLoad(addr, n, v)
	}
	return v
}

// Store implements isa.Memory: the n low-order bytes of v, big-endian.
func (m *Func) Store(addr uint32, n int, v uint64) {
	off := addr & (1<<pageBits - 1)
	if int(off)+n <= 1<<pageBits {
		p := m.page(addr, true)
		for i := n - 1; i >= 0; i-- {
			o := off + uint32(i)
			p.data[o] = byte(v)
			p.valid[o/8] |= 1 << (o % 8)
			v >>= 8
		}
		return
	}
	for i := n - 1; i >= 0; i-- {
		m.SetByte(addr+uint32(i), byte(v))
		v >>= 8
	}
}

// WriteBytes copies b into memory starting at addr.
func (m *Func) WriteBytes(addr uint32, b []byte) {
	for i, x := range b {
		m.SetByte(addr+uint32(i), x)
	}
}

// ReadBytes copies n bytes starting at addr into a fresh slice, one
// page at a time.
func (m *Func) ReadBytes(addr uint32, n int) []byte {
	b := make([]byte, n)
	for i := 0; i < n; {
		a := addr + uint32(i)
		off := a & (1<<pageBits - 1)
		k := min(n-i, 1<<pageBits-int(off))
		if p := m.page(a, false); p != nil {
			copy(b[i:i+k], p.data[off:])
		}
		i += k
	}
	return b
}

// Diff returns the lowest address at which the two images differ. It
// compares the union of both images' populated pages.
func Diff(a, b *Func) (uint32, bool) {
	return DiffIgnore(a, b, nil)
}

// DiffIgnore is Diff with an optional skip predicate: addresses for
// which ignore returns true are not compared. Fault campaigns use it to
// exclude the injected corruption sites themselves when deciding
// whether a fault propagated. Pages are walked in ascending order, so
// the address returned is the lowest differing one.
func DiffIgnore(a, b *Func, ignore func(addr uint32) bool) (uint32, bool) {
	for di := range a.dir {
		if a.dir[di] == nil && b.dir[di] == nil {
			continue
		}
		for li := range 1 << leafBits {
			pa, pb := a.dir[di].at(li), b.dir[di].at(li)
			if pa == pb {
				continue
			}
			base := uint32(di)<<(32-dirBits) | uint32(li)<<pageBits
			for off := range pa.data {
				addr := base + uint32(off)
				if pa.data[off] != pb.data[off] && (ignore == nil || !ignore(addr)) {
					return addr, true
				}
			}
		}
	}
	return 0, false
}

// zeroPage stands in for an unpopulated page when diffing.
var zeroPage page

// at returns page i of l, or zeroPage where l or the page is absent.
func (l *leaf) at(i int) *page {
	if l == nil || l[i] == nil {
		return &zeroPage
	}
	return l[i]
}
