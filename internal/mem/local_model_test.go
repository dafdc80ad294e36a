package mem

import "encoding/binary"

// The per-thread local memory the simulator used before a warp's stacks were
// interleaved (WarpLocal), kept as the model FuzzWarpLocal checks WarpLocal
// against lane by lane. It is itself checked against a plain byte array
// (localModel) by TestLocalMatchesModel and FuzzLocal.

// Local is one thread's local memory, stored as the written suffix
// [base, size) of a byte array: the layout WarpLocal interleaves 32 of.
type Local struct {
	size int
	base int // data backs [base, size); base == size until the first write
	data []byte
}

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
