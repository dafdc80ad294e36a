package sass

import "math/bits"

// Count returns the set cardinality.
func (s PredSet) Count() int {
	n := 0
	for p := uint8(0); p < 8; p++ {
		if s.Has(p) {
			n++
		}
	}
	return n
}

// Remove deletes predicate p.
func (s *PredSet) Remove(p uint8) { *s &^= 1 << p }

// Union merges o into s and reports whether s changed.
func (s *PredSet) Union(o PredSet) bool {
	n := *s | o
	changed := n != *s
	*s = n
	return changed
}

// Count returns the set cardinality.
func (s *RegSet) Count() int {
	n := 0
	for _, w := range s {
		n += bits.OnesCount64(w)
	}
	return n
}

// Union merges o into s and reports whether s changed.
func (s *RegSet) Union(o *RegSet) bool {
	changed := false
	for i := range s {
		n := s[i] | o[i]
		if n != s[i] {
			changed = true
			s[i] = n
		}
	}
	return changed
}
