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
