package analysis

// UpdateGolden exposes the package's -update flag to the external tests.
var UpdateGolden = updateGolden

// LivenessMismatch compares Liveness with the model it replaced at every
// instruction of cfg's kernel: "" if they agree, else the first difference.
var LivenessMismatch = livenessMismatch

// ValueRuns reports how many value fixpoints f.Values has run: it memoises,
// so none or one.
func (f *KernelFacts) ValueRuns() int {
	if f.val == nil {
		return 0
	}
	return 1
}
