package sass

import (
	"testing"
	"testing/quick"
)

func TestRegSetOps(t *testing.T) {
	var s RegSet
	s.Add(0)
	s.Add(63)
	s.Add(64)
	s.Add(254)
	if !s.Has(0) || !s.Has(63) || !s.Has(64) || !s.Has(254) || s.Has(1) {
		t.Error("membership wrong")
	}
	if s.Count() != 4 {
		t.Errorf("count = %d", s.Count())
	}
	regs := s.Regs()
	want := []uint8{0, 63, 64, 254}
	if len(regs) != len(want) {
		t.Fatalf("regs = %v", regs)
	}
	for i := range want {
		if regs[i] != want[i] {
			t.Errorf("regs[%d] = %d, want %d", i, regs[i], want[i])
		}
	}
	s.Remove(63)
	if s.Has(63) || s.Count() != 3 {
		t.Error("remove failed")
	}
	var o RegSet
	o.Add(5)
	if !s.Union(&o) || !s.Has(5) {
		t.Error("union failed")
	}
	if s.Union(&o) {
		t.Error("idempotent union reported change")
	}
}

func TestRegSetQuick(t *testing.T) {
	f := func(rs []uint8) bool {
		var s RegSet
		seen := map[uint8]bool{}
		for _, r := range rs {
			s.Add(r)
			seen[r] = true
		}
		if s.Count() != len(seen) {
			return false
		}
		for r := range seen {
			if !s.Has(r) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPredSetOps(t *testing.T) {
	var s PredSet
	s.Add(0)
	s.Add(6)
	if !s.Has(0) || !s.Has(6) || s.Has(3) || s.Count() != 2 {
		t.Error("pred set basic ops wrong")
	}
	if got := s.Preds(); len(got) != 2 || got[0] != 0 || got[1] != 6 {
		t.Errorf("preds = %v", got)
	}
}
