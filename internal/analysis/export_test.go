package analysis

// UpdateGolden exposes the package's -update flag to the external tests.
var UpdateGolden = updateGolden

// VerifyKernelFacts is VerifyKernel that also returns the facts value the
// registered checks shared.
var VerifyKernelFacts = verifyKernel

// ValueRuns reports how many value fixpoints f.Values has run: it memoises,
// so none or one.
func (f *KernelFacts) ValueRuns() int {
	if f.val == nil {
		return 0
	}
	return 1
}
