package lib

import "testing"

// TestLib is the only user of what the fixture's rules refuse.
func TestLib(t *testing.T) {
	if helper()+Listed() != 3 || Run(Knobs{OnlyTests: true, Listed: true}, Flags{}) != 0 {
		t.Fail()
	}
	(&Walker{}).probe()
}
