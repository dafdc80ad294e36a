package ptx_test

import (
	"testing"

	"sassi/internal/ptx"
)

// FuzzParseModule: PTX text is a trust boundary, so ParseModule returns a
// module or an error for any input and never panics.
func FuzzParseModule(f *testing.F) {
	for _, src := range []string{saxpySrc, loopSrc, atomSrc, saxpySrc + "\n" + atomSrc, "", ".entry k\n"} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		m, err := ptx.ParseModule(src)
		if err == nil && m == nil {
			t.Fatal("no module and no error")
		}
	})
}
