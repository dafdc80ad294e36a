package mem

import "encoding/binary"

// inBounds reports whether [off, off+n) lies inside an allocation of size
// bytes, without forming off+n: a corrupted address register can put off
// within n of 2^64, and the wrapped sum would pass a naive comparison.
func inBounds(off uint64, n, size int) bool {
	return off <= uint64(size) && uint64(n) <= uint64(size)-off
}

// Shared is one CTA's shared-memory scratchpad.
type Shared struct {
	data []byte
}

// NewShared returns a scratchpad of the given size.
func NewShared(size int) *Shared { return &Shared{data: make([]byte, size)} }

// Size returns the scratchpad capacity in bytes.
func (s *Shared) Size() int { return len(s.data) }

func (s *Shared) check(off uint64, n int, write bool) error {
	if !inBounds(off, n, len(s.data)) {
		return &Fault{Space: SpaceShared, Addr: SharedBase + off, Write: write,
			Why: "offset beyond CTA shared allocation"}
	}
	return nil
}

// Read copies shared memory into buf.
func (s *Shared) Read(off uint64, buf []byte) error {
	if err := s.check(off, len(buf), false); err != nil {
		return err
	}
	copy(buf, s.data[off:])
	return nil
}

// Write copies buf into shared memory.
func (s *Shared) Write(off uint64, data []byte) error {
	if err := s.check(off, len(data), true); err != nil {
		return err
	}
	copy(s.data[off:], data)
	return nil
}

// Read32 loads a 32-bit word at byte offset off.
func (s *Shared) Read32(off uint64) (uint32, error) {
	if err := s.check(off, 4, false); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(s.data[off:]), nil
}

// Write32 stores a 32-bit word at byte offset off.
func (s *Shared) Write32(off uint64, v uint32) error {
	if err := s.check(off, 4, true); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(s.data[off:], v)
	return nil
}

// Local is one thread's local memory: its stack (spills, instrumentation
// frames, parameter objects) plus compiler-allocated local arrays.
//
// The stack pointer register (R1 by ABI) holds a byte offset within this
// space; the generic-space view of a local address is LocalBase+offset.
//
// Backing storage covers only the suffix [base, size) that has been
// written: the stack grows down from size, and an instrumented thread
// touches one frame of a few hundred bytes at the top of a 4 KiB+
// allocation, so materialising the whole of it on the first store was most
// of an instrumented launch's allocation. Nothing below base has ever been
// written, so reads there return zeros, exactly what an eager zeroed
// allocation would hold; a store below base moves base down to a multiple
// of localGranule and copies what is there.
type Local struct {
	size int
	base int // data backs [base, size); base == size until the first write
	data []byte
}

// localGranule is the power of two base is rounded down to. One granule
// holds a whole injected frame (112-176 bytes) when the frame does not
// straddle a multiple of it, so a site costs one allocation, at most two.
const localGranule = 256

// NewLocal returns a thread-local memory of the given size. The stack
// pointer starts at Size (the stack grows down).
func NewLocal(size int) *Local { return &Local{size: size, base: size} }

// Reset reinitializes l to an empty local memory of the given size,
// releasing any materialized storage. It lets pooled allocators reuse
// Local values across launches.
func (l *Local) Reset(size int) {
	l.size, l.base, l.data = size, size, nil
}

// Size returns the local memory capacity in bytes.
func (l *Local) Size() int { return l.size }

// Materialized returns how many bytes of backing storage l holds.
func (l *Local) Materialized() int { return len(l.data) }

func (l *Local) check(off uint64, n int, write bool) error {
	if !inBounds(off, n, l.size) {
		return &Fault{Space: SpaceLocal, Addr: LocalBase + off, Write: write,
			Why: "local access beyond per-thread allocation (stack overflow?)"}
	}
	return nil
}

// at returns the storage for a checked store at off, first growing the
// materialised suffix down to cover it.
func (l *Local) at(off uint64) []byte {
	if int(off) < l.base {
		base := int(off) &^ (localGranule - 1)
		data := make([]byte, l.size-base)
		copy(data[l.base-base:], l.data)
		l.base, l.data = base, data
	}
	return l.data[int(off)-l.base:]
}

// Read copies local memory into buf.
func (l *Local) Read(off uint64, buf []byte) error {
	if err := l.check(off, len(buf), false); err != nil {
		return err
	}
	if o := int(off); o < l.base {
		zeros := min(len(buf), l.base-o)
		clear(buf[:zeros])
		copy(buf[zeros:], l.data)
	} else {
		copy(buf, l.data[o-l.base:])
	}
	return nil
}

// Write copies buf into local memory.
func (l *Local) Write(off uint64, data []byte) error {
	if err := l.check(off, len(data), true); err != nil {
		return err
	}
	copy(l.at(off), data)
	return nil
}

// Read32 loads a 32-bit word at byte offset off.
func (l *Local) Read32(off uint64) (uint32, error) {
	if err := l.check(off, 4, false); err != nil {
		return 0, err
	}
	o := int(off)
	if o >= l.base {
		return binary.LittleEndian.Uint32(l.data[o-l.base:]), nil
	}
	if o+4 <= l.base {
		return 0, nil
	}
	var buf [4]byte // an unaligned word across base
	err := l.Read(off, buf[:])
	return binary.LittleEndian.Uint32(buf[:]), err
}

// Write32 stores a 32-bit word at byte offset off.
func (l *Local) Write32(off uint64, v uint32) error {
	if err := l.check(off, 4, true); err != nil {
		return err
	}
	binary.LittleEndian.PutUint32(l.at(off), v)
	return nil
}
