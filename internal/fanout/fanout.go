// Package fanout runs numbered, independent runs over a pool of
// goroutines. It is the one worker pool behind every -workers flag: the
// fault campaigns, the differential campaign and the schedule sweep. A
// caller whose run is a pure function of its index gets results that are
// identical at any worker count, and Run reports the lowest failing run,
// so which error surfaces does not depend on scheduling either.
package fanout

import (
	"runtime"
	"sync"
)

// Size is the number of goroutines Run starts for n runs: workers, or
// GOMAXPROCS when workers <= 0, and never more than n.
func Size(workers, n int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return min(workers, n)
}

// Run calls do(state, worker, i) once for every i in [0, n), over
// Size(workers, n) goroutines numbered from 0. Goroutine worker makes its
// own state with newState (the zero S when newState is nil) and hands it
// to each of its runs, so no two goroutines share a state. Run returns
// once every run is done, with the lowest i whose do failed and that
// error, or -1 and nil.
func Run[S any](workers, n int, newState func() S, do func(state S, worker, i int) error) (int, error) {
	errs := make([]error, n)
	next := make(chan int)
	var wg sync.WaitGroup
	for w := range Size(workers, n) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var state S
			if newState != nil {
				state = newState()
			}
			for i := range next {
				errs[i] = do(state, w, i)
			}
		}()
	}
	for i := range n {
		next <- i
	}
	close(next)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return i, err
		}
	}
	return -1, nil
}
