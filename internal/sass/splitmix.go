package sass

// SplitMix scrambles (seed, n) into an independent 64-bit word: the
// splitmix64 finalizer of seed plus n+1 golden-ratio increments. The fault
// campaigns, the difftest generator and campaigns and the scheduler's
// tie-break jitter derive every per-run or per-site seed from it, so their
// results are a pure function of (seed, n) at any worker count.
func SplitMix(seed, n uint64) uint64 {
	z := seed + 0x9e3779b97f4a7c15*(n+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
