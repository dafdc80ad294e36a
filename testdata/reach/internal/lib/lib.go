// Package lib holds one case per reachability rule; the comment on each
// says whether TestReachabilityFixture expects a finding.
package lib

import (
	"sync"
	"sync/atomic"
)

// Knobs is written by key in main.
type Knobs struct {
	Used      int  // written by main, read by Run: kept
	Unread    int  // written by main, read by nothing: a finding
	OnlyTests bool // read by Run, written only by lib_test.go: a finding
	Listed    bool // read by Run, written only by lib_test.go, listed: kept
}

// Flags.N is written only through its address.
type Flags struct {
	N int
}

// Parse sets f.N through a pointer to it.
func Parse(f *Flags) { set(&f.N) }

func set(p *int) { *p = 1 }

// Run reads the knobs.
func Run(k Knobs, f Flags) int {
	if k.OnlyTests || k.Listed {
		return 0
	}
	return k.Used + f.N
}

// Pair is written by position in main and read by Sum: kept.
type Pair struct{ A, B int }

// Sum reads both fields.
func (p Pair) Sum() int { return p.A + p.B }

// Report.Count is read by encoding/json, which its tag says: kept.
type Report struct {
	Count int64 `json:"count"`
}

// State's mutex and atomic are used through their methods: kept. Its
// padding is never a finding.
type State struct {
	_     [8]byte
	mu    sync.Mutex
	hits  atomic.Int64
	count int          // incremented, never read: a finding
	trail map[int]bool // written by key and by index, never read: a finding
}

// NewState writes trail by key.
func NewState() *State { return &State{trail: map[int]bool{}} }

// Bump writes count and trail and counts a hit.
func (s *State) Bump(i int) {
	s.mu.Lock()
	s.count++
	s.trail[i] = true
	s.hits.Add(1)
	s.mu.Unlock()
}

// Hits reads the atomic.
func (s *State) Hits() int64 { return s.hits.Load() }

type stepper interface{ step() }

// Walker's step is reached through an interface: kept.
type Walker struct{}

func (*Walker) step() {}

// probe is called only by lib_test.go: a finding.
func (*Walker) probe() {}

// Walk steps w through the interface.
func Walk(w stepper) { w.step() }

// helper is called only by lib_test.go: a finding.
func helper() int { return 1 }

// Listed is listed in unreached.txt, so what it reaches is kept.
func Listed() int { return listedCallee() }

func listedCallee() int { return 2 }

// Each init reaches its own function; neither is a finding.
func init() { initA() }

func init() { initB() }

func initA() {}

func initB() {}
