package sass

import "testing"

// TestSplitMix pins the finalizer every campaign seed, difftest kernel and
// schedule jitter derives from: splitmix64's first output for seed 0, and
// two more.
func TestSplitMix(t *testing.T) {
	for _, c := range []struct{ seed, n, want uint64 }{
		{0, 0, 0xe220a8397b1dcdaf},
		{2015, 7, 0xe925c8f69bc8c099},
		{1, 1 << 40, 0x4b232129431b8899},
	} {
		if got := SplitMix(c.seed, c.n); got != c.want {
			t.Errorf("SplitMix(%d, %d) = %#x, want %#x", c.seed, c.n, got, c.want)
		}
	}
}
