package difftest

import "testing"

// FuzzParseRepro: a repro file is a trust boundary, so ParseRepro returns a
// program or an error for any bytes and never panics.
func FuzzParseRepro(f *testing.F) {
	for _, seed := range []uint64{11, 2748} {
		s, err := Repro(Generate(seed, DefaultSize()), "note")
		if err != nil {
			f.Fatal(err)
		}
		f.Add([]byte(s))
	}
	f.Add([]byte(".entry fz\n    EXIT;\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ParseRepro(data)
		if err == nil && p == nil {
			t.Fatal("no program and no error")
		}
	})
}
