package workloads

import (
	"encoding/binary"
	"math"
)

// rng is a deterministic xorshift64* generator so every dataset is
// reproducible without touching math/rand's global state.
type rng struct{ s uint64 }

func newRNG(seed uint64) *rng {
	if seed == 0 {
		seed = 0x9e3779b97f4a7c15
	}
	return &rng{s: seed}
}

func (r *rng) next() uint64 {
	r.s ^= r.s >> 12
	r.s ^= r.s << 25
	r.s ^= r.s >> 27
	return r.s * 0x2545f4914f6cdd1d
}

// intn returns a uniform int in [0, n).
func (r *rng) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// f32 returns a uniform float32 in [0, 1).
func (r *rng) f32() float32 {
	return float32(r.next()>>40) / float32(1<<24)
}

// f32s fills a deterministic float slice in [lo, hi).
func (r *rng) f32s(n int, lo, hi float32) []float32 {
	out := make([]float32, n)
	for i := range out {
		out[i] = lo + (hi-lo)*r.f32()
	}
	return out
}

func putU32(b []byte, v uint32) { binary.LittleEndian.PutUint32(b, v) }
func putF32(b []byte, v float32) {
	binary.LittleEndian.PutUint32(b, math.Float32bits(v))
}

// f32bitsOf exposes float bit patterns for kernel arguments.
func f32bitsOf(f float32) uint32 { return math.Float32bits(f) }

// f32FromBytes decodes a little-endian float32.
func f32FromBytes(b []byte) float32 {
	return math.Float32frombits(binary.LittleEndian.Uint32(b))
}

// cos64, sin64 and sqrt64 are float64 math for CPU references.
func cos64(x float64) float64  { return math.Cos(x) }
func sin64(x float64) float64  { return math.Sin(x) }
func sqrt64(x float64) float64 { return math.Sqrt(x) }

// Graph is a CSR adjacency structure used by the BFS workloads.
type Graph struct {
	N      int
	RowPtr []uint32 // length N+1
	Cols   []uint32 // length RowPtr[N]
}

// Edges returns the edge count.
func (g *Graph) Edges() int { return len(g.Cols) }

// genUniformGraph makes a random directed graph with roughly avgDeg
// out-edges per node — the stand-in for Parboil bfs's synthetic "1M"
// input (high degree, small diameter).
func genUniformGraph(n, avgDeg int, seed uint64) *Graph {
	r := newRNG(seed)
	g := &Graph{N: n, RowPtr: make([]uint32, n+1)}
	for v := 0; v < n; v++ {
		deg := avgDeg/2 + r.intn(avgDeg)
		g.RowPtr[v+1] = g.RowPtr[v] + uint32(deg)
	}
	g.Cols = make([]uint32, g.RowPtr[n])
	for i := range g.Cols {
		g.Cols[i] = uint32(r.intn(n))
	}
	return g
}

// genRoadGraph makes a grid-with-diagonals network: degree <= 4-ish and a
// large diameter, the stand-in for the NY/SF/UT road-network inputs. A
// fraction of edges is randomly dropped so row lengths vary.
func genRoadGraph(side int, dropPct int, seed uint64) *Graph {
	r := newRNG(seed)
	n := side * side
	type edge struct{ from, to uint32 }
	var edges []edge
	add := func(a, b int) {
		if r.intn(100) >= dropPct {
			edges = append(edges, edge{uint32(a), uint32(b)})
		}
	}
	for y := 0; y < side; y++ {
		for x := 0; x < side; x++ {
			v := y*side + x
			if x+1 < side {
				add(v, v+1)
				add(v+1, v)
			}
			if y+1 < side {
				add(v, v+side)
				add(v+side, v)
			}
			// Occasional shortcut to vary degree.
			if r.intn(100) < 4 {
				add(v, r.intn(n))
			}
		}
	}
	g := &Graph{N: n, RowPtr: make([]uint32, n+1)}
	deg := make([]uint32, n)
	for _, e := range edges {
		deg[e.from]++
	}
	for v := 0; v < n; v++ {
		g.RowPtr[v+1] = g.RowPtr[v] + deg[v]
	}
	g.Cols = make([]uint32, g.RowPtr[n])
	fill := make([]uint32, n)
	copy(fill, g.RowPtr[:n])
	for _, e := range edges {
		g.Cols[fill[e.from]] = e.to
		fill[e.from]++
	}
	return g
}

// bfsGraph returns the graph for a BFS dataset key. Sizes are scaled down
// from the paper's inputs so instrumented simulation stays fast; the
// degree-distribution *shapes* (random vs road-network) are preserved.
func bfsGraph(dataset string) *Graph {
	switch dataset {
	case "1M":
		return genUniformGraph(6000, 8, 101)
	case "NY":
		return genRoadGraph(56, 12, 102) // 3136 nodes, sparse grid
	case "SF":
		return genRoadGraph(72, 8, 103)
	case "UT":
		return genRoadGraph(40, 16, 104)
	default:
		return genUniformGraph(1024, 6, 105)
	}
}

// cpuBFS computes reference levels.
func cpuBFS(g *Graph, src int) []uint32 {
	const inf = 0xffffffff
	lvl := make([]uint32, g.N)
	for i := range lvl {
		lvl[i] = inf
	}
	lvl[src] = 0
	queue := []int{src}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		for j := g.RowPtr[v]; j < g.RowPtr[v+1]; j++ {
			w := int(g.Cols[j])
			if lvl[w] == inf {
				lvl[w] = lvl[v] + 1
				queue = append(queue, w)
			}
		}
	}
	return lvl
}

// SparseMatrix is a CSR matrix for spmv/miniFE.
type SparseMatrix struct {
	Rows   int
	RowPtr []uint32
	Cols   []uint32
	Vals   []float32
}

// genSparseRandom makes a CSR matrix with highly variable row lengths —
// the irregular access pattern of Parboil spmv.
func genSparseRandom(rows, avgNnz int, seed uint64) *SparseMatrix {
	r := newRNG(seed)
	m := &SparseMatrix{Rows: rows, RowPtr: make([]uint32, rows+1)}
	for i := 0; i < rows; i++ {
		nnz := 1 + r.intn(2*avgNnz)
		m.RowPtr[i+1] = m.RowPtr[i] + uint32(nnz)
	}
	total := int(m.RowPtr[rows])
	m.Cols = make([]uint32, total)
	m.Vals = make([]float32, total)
	for i := range m.Cols {
		m.Cols[i] = uint32(r.intn(rows))
		m.Vals[i] = r.f32() - 0.5
	}
	return m
}

// genFEMatrix makes a miniFE-like matrix: a 27-point hexahedral stencil on
// a side^3 grid. Interior rows have 27 entries, faces/edges fewer, so CSR
// rows are near-uniform but column indices stride in 3D — mildly irregular
// gathers, exactly the miniFE sparsity.
func genFEMatrix(side int, seed uint64) *SparseMatrix {
	r := newRNG(seed)
	n := side * side * side
	m := &SparseMatrix{Rows: n, RowPtr: make([]uint32, n+1)}
	var cols []uint32
	var vals []float32
	idx := func(x, y, z int) int { return (z*side+y)*side + x }
	for z := 0; z < side; z++ {
		for y := 0; y < side; y++ {
			for x := 0; x < side; x++ {
				row := idx(x, y, z)
				for dz := -1; dz <= 1; dz++ {
					for dy := -1; dy <= 1; dy++ {
						for dx := -1; dx <= 1; dx++ {
							nx, ny, nz := x+dx, y+dy, z+dz
							if nx < 0 || ny < 0 || nz < 0 || nx >= side || ny >= side || nz >= side {
								continue
							}
							cols = append(cols, uint32(idx(nx, ny, nz)))
							v := r.f32()*0.1 - 0.05
							if dx == 0 && dy == 0 && dz == 0 {
								v = 26.0 // diagonally dominant
							}
							vals = append(vals, v)
						}
					}
				}
				m.RowPtr[row+1] = uint32(len(cols))
			}
		}
	}
	m.Cols = cols
	m.Vals = vals
	return m
}

// ELLMatrix is the column-major padded format miniFE-ELL uses.
type ELLMatrix struct {
	PerRow int
	Cols   []uint32  // PerRow*rows, column-major: Cols[k*rows+row]
	Vals   []float32 // same layout; padding entries have Vals==0
}

// toELL converts CSR to ELL (padding short rows).
func toELL(m *SparseMatrix) *ELLMatrix {
	perRow := 0
	for i := 0; i < m.Rows; i++ {
		if n := int(m.RowPtr[i+1] - m.RowPtr[i]); n > perRow {
			perRow = n
		}
	}
	e := &ELLMatrix{PerRow: perRow,
		Cols: make([]uint32, perRow*m.Rows),
		Vals: make([]float32, perRow*m.Rows)}
	for i := 0; i < m.Rows; i++ {
		k := 0
		for j := m.RowPtr[i]; j < m.RowPtr[i+1]; j++ {
			e.Cols[k*m.Rows+i] = m.Cols[j]
			e.Vals[k*m.Rows+i] = m.Vals[j]
			k++
		}
		for ; k < perRow; k++ {
			e.Cols[k*m.Rows+i] = uint32(i) // benign in-range column, val 0
		}
	}
	return e
}

// cpuSpMV computes the reference y = A*x.
func cpuSpMV(m *SparseMatrix, x []float32) []float32 {
	y := make([]float32, m.Rows)
	for i := 0; i < m.Rows; i++ {
		var sum float32
		for j := m.RowPtr[i]; j < m.RowPtr[i+1]; j++ {
			sum += m.Vals[j] * x[m.Cols[j]]
		}
		y[i] = sum
	}
	return y
}
