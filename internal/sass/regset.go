package sass

// Register sets: the injector's value type for the state a site preserves
// (analysis.Liveness fills one per instruction).

import "math/bits"

// RegSet is a dense bitset over the 256 GPR numbers.
type RegSet [4]uint64

// Add inserts register r.
func (s *RegSet) Add(r uint8) { s[r>>6] |= 1 << (r & 63) }

// Remove deletes register r.
func (s *RegSet) Remove(r uint8) { s[r>>6] &^= 1 << (r & 63) }

// Has reports whether register r is in the set.
func (s *RegSet) Has(r uint8) bool { return s[r>>6]&(1<<(r&63)) != 0 }

// Regs returns the member registers in ascending order.
func (s *RegSet) Regs() []uint8 {
	var out []uint8
	for w := 0; w < 4; w++ {
		word := s[w]
		for word != 0 {
			r := uint8(w<<6) + uint8(bits.TrailingZeros64(word))
			out = append(out, r)
			word &= word - 1
		}
	}
	return out
}

// PredSet is a bitset over the 8 predicate register numbers.
type PredSet uint8

// Add inserts predicate p.
func (s *PredSet) Add(p uint8) { *s |= 1 << p }

// Has reports whether predicate p is in the set.
func (s PredSet) Has(p uint8) bool { return s&(1<<p) != 0 }

// Preds returns member predicates in ascending order.
func (s PredSet) Preds() []uint8 {
	var out []uint8
	for p := uint8(0); p < 8; p++ {
		if s.Has(p) {
			out = append(out, p)
		}
	}
	return out
}
