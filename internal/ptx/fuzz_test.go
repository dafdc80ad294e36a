package ptx_test

import (
	"testing"

	"sassi/internal/ptx"
	"sassi/internal/ptxas"
)

// FuzzParseModule: PTX text is a trust boundary, so ParseModule returns a
// module or an error for any input and never panics, and ptxas compiles
// whatever parses to a program or an error, never a panic.
func FuzzParseModule(f *testing.F) {
	for _, src := range []string{saxpySrc, loopSrc, atomSrc, saxpySrc + "\n" + atomSrc, "", ".entry k\n", predAddSrc, ptrAddSrc} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		m, err := ptx.ParseModule(src)
		if err != nil {
			return
		}
		if m == nil {
			t.Fatal("no module and no error")
		}
		prog, err := ptxas.Compile(m, ptxas.Options{})
		if err == nil && prog == nil {
			t.Fatal("no program and no error")
		}
	})
}
