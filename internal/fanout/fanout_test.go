package fanout

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// TestRunEachIndexOnce: every index in [0, n) runs exactly once, at worker
// counts below, at and above n, and at the GOMAXPROCS default.
func TestRunEachIndexOnce(t *testing.T) {
	for _, tc := range []struct{ workers, n int }{
		{1, 50}, {4, 50}, {8, 3}, {0, 50}, {-2, 7}, {3, 0},
	} {
		t.Run(fmt.Sprintf("workers=%d/n=%d", tc.workers, tc.n), func(t *testing.T) {
			counts := make([]atomic.Int32, tc.n)
			var mu sync.Mutex
			seen := map[int]bool{}
			i, err := Run[struct{}](tc.workers, tc.n, nil, func(_ struct{}, w, i int) error {
				counts[i].Add(1)
				mu.Lock()
				seen[w] = true
				mu.Unlock()
				return nil
			})
			if i != -1 || err != nil {
				t.Fatalf("Run = (%d, %v), want (-1, nil)", i, err)
			}
			for i := range counts {
				if c := counts[i].Load(); c != 1 {
					t.Errorf("index %d ran %d times", i, c)
				}
			}
			size, want := Size(tc.workers, tc.n), min(tc.workers, tc.n)
			if tc.workers <= 0 {
				want = min(runtime.GOMAXPROCS(0), tc.n)
			}
			if size != want {
				t.Errorf("Size(%d, %d) = %d, want %d", tc.workers, tc.n, size, want)
			}
			for w := range seen {
				if w < 0 || w >= size {
					t.Errorf("worker %d outside [0, %d)", w, size)
				}
			}
		})
	}
}

// TestRunLowestFailureWins: index 0 fails last, after every other index
// has failed, and is still the failure Run returns.
func TestRunLowestFailureWins(t *testing.T) {
	const n = 16
	var done atomic.Int32
	others := make(chan struct{})
	i, err := Run[struct{}](4, n, nil, func(_ struct{}, _, i int) error {
		if i == 0 {
			<-others
			return fmt.Errorf("run %d", i)
		}
		if done.Add(1) == n-1 {
			close(others)
		}
		return fmt.Errorf("run %d", i)
	})
	if i != 0 || err == nil || err.Error() != "run 0" {
		t.Errorf("Run = (%d, %v), want (0, run 0)", i, err)
	}
}

// TestRunKeepsGoingAfterFailure: a failure stops no other run.
func TestRunKeepsGoingAfterFailure(t *testing.T) {
	var ran atomic.Int32
	boom := errors.New("boom")
	i, err := Run[struct{}](3, 20, nil, func(_ struct{}, _, i int) error {
		ran.Add(1)
		if i%5 == 3 {
			return boom
		}
		return nil
	})
	if i != 3 || !errors.Is(err, boom) {
		t.Errorf("Run = (%d, %v), want (3, boom)", i, err)
	}
	if ran.Load() != 20 {
		t.Errorf("%d of 20 runs ran", ran.Load())
	}
}

// TestRunStatePerWorker: each goroutine makes one state and no other
// goroutine's run sees it.
func TestRunStatePerWorker(t *testing.T) {
	type state struct {
		worker int // -1 until the state's first run
		busy   atomic.Bool
	}
	const workers, n = 4, 200
	var made atomic.Int32
	newState := func() *state {
		made.Add(1)
		return &state{worker: -1}
	}
	_, err := Run(workers, n, newState, func(s *state, w, i int) error {
		if !s.busy.CompareAndSwap(false, true) {
			return fmt.Errorf("run %d: state in use by another run", i)
		}
		defer s.busy.Store(false)
		if s.worker == -1 {
			s.worker = w
		}
		if s.worker != w {
			return fmt.Errorf("run %d: worker %d got worker %d's state", i, w, s.worker)
		}
		runtime.Gosched()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if made.Load() != workers {
		t.Errorf("%d states made for %d workers", made.Load(), workers)
	}
}
