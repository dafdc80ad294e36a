package mem

import "encoding/binary"

// AtomOp is a read-modify-write operation of the atomic unit: what ATOM,
// RED and ATOMS do to a word, and what handler code's atomicAdd and its
// kin do. Its first eight values follow the ISA's operator order.
type AtomOp uint8

// Atomic operations. MIN and MAX come in a signed and an unsigned form; CAS
// compares the word with the entry's operand and, when they are equal,
// stores its swap value.
const (
	AtomAdd AtomOp = iota
	AtomMin
	AtomMax
	AtomAnd
	AtomOr
	AtomXor
	AtomExch
	AtomCAS
	AtomMinU
	AtomMaxU
)

// Apply returns what a width-byte word (4 or 8) holding old holds after op
// with operand v and, for CAS, swap: the one statement of every simulated
// atomic's meaning. A 4-byte word's values are zero-extended, and only the
// low four bytes of the result are its new value.
func (op AtomOp) Apply(width int, old, v, swap uint64) uint64 {
	switch op {
	case AtomAdd:
		return old + v
	case AtomMin:
		if signedLess(width, v, old) {
			return v
		}
	case AtomMax:
		if signedLess(width, old, v) {
			return v
		}
	case AtomMinU:
		return min(old, v)
	case AtomMaxU:
		return max(old, v)
	case AtomAnd:
		return old & v
	case AtomOr:
		return old | v
	case AtomXor:
		return old ^ v
	case AtomExch:
		return v
	case AtomCAS:
		if old == v {
			return swap
		}
	}
	return old
}

func signedLess(width int, a, b uint64) bool {
	if width == 4 {
		return int32(a) < int32(b)
	}
	return int64(a) < int64(b)
}

// AtomicBatch is a reusable batch of global-memory atomics: up to 32
// entries of one operation and one width, applied in order — a warp's
// ATOM or RED, or the atomics a handler issues for a set of lanes.
type AtomicBatch struct {
	N     int // number of staged entries
	Op    AtomOp
	Width int // bytes per entry: 4 or 8
	Addrs [32]uint64
	Vals  [32]uint64 // each entry's operand; its old value once applied
	Swaps [32]uint64 // CAS only: each entry's swap value
}

// AtomicWarp applies the staged entries in order, each a read-modify-write
// of the word at its address, and returns how many it applied, leaving
// each applied entry's old value in Vals. Entries sharing an address chain:
// each sees the value the one before it left. Faults are AccessWarp's:
// validation stops at the first faulting entry, every earlier entry is
// applied, and when n < b.N err is entry n's store fault, field for field
// what a single atomic at that address returns.
//
// One metadata lock validates the batch and the covering stripes are held
// across all of it, so the batch is atomic with respect to other SMs: as
// AccessWarp argues, strictly stronger than one entry at a time and
// indistinguishable from it in any deterministic schedule.
func (g *Global) AtomicWarp(b *AtomicBatch) (int, error) {
	w := uint64(b.Width)
	entries := uint32(uint64(1)<<b.N - 1) // entry i as lane i
	n, held, cachedPN, cached, ferr := g.admit(&b.Addrs, entries, ShapeGeneral, w, true)
	if n == 0 {
		return 0, ferr
	}
	for i := 0; i < n; i++ {
		a := b.Addrs[i]
		var buf [8]byte
		word := buf[:w]
		straddles := a&(pageSize-1)+w > pageSize
		if straddles {
			g.readData(a, word)
		} else {
			if pn := a >> pageShift; pn != cachedPN {
				cachedPN, cached = pn, g.pageRW(pn)
			}
			word = cached[a&(pageSize-1):][:w]
		}
		var old uint64
		if w == 4 {
			old = uint64(binary.LittleEndian.Uint32(word))
			binary.LittleEndian.PutUint32(word, uint32(b.Op.Apply(4, old, b.Vals[i], b.Swaps[i])))
		} else {
			old = binary.LittleEndian.Uint64(word)
			binary.LittleEndian.PutUint64(word, b.Op.Apply(8, old, b.Vals[i], b.Swaps[i]))
		}
		if straddles {
			g.writeData(a, word)
		}
		b.Vals[i] = old
	}
	held.unlock()
	return n, ferr
}
