package handlers

import "sassi/internal/cuda"

// Reset zeroes the table (between kernel launches when per-launch stats
// are wanted).
func (t *InsTable) Reset() error {
	zero := make([]byte, uint64(t.slots)*t.entrySize())
	return t.ctx.MemcpyHtoD(cuda.DevPtr(t.base), zero)
}
