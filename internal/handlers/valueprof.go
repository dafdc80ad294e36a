package handlers

import (
	"math/bits"
	"sort"

	"sassi/internal/cuda"
	"sassi/internal/device"
	"sassi/internal/sassi"
)

// Value-profile entry layout: weight, numDsts, then per destination (up to
// 4): regNum, constantOnes, constantZeros, isScalar — the paper's Figure 9
// handlerOperands structure.
const (
	vfWeight  = 0
	vfNumDsts = 1
	vfPerDst  = 4 // fields per destination
	vfMaxDsts = 4
	vfFields  = 2 + vfMaxDsts*vfPerDst
)

func vfDst(d, field int) int { return 2 + d*vfPerDst + field }

// Per-destination field offsets.
const (
	vfRegNum = iota
	vfOnes
	vfZeros
	vfScalar
)

// ValueProfiler is Case Study III (§7): instrumentation after every
// register-writing instruction tracking (1) which bits of produced values
// are constant across the whole kernel and (2) which instructions are
// scalar — producing identical values across the warp.
type ValueProfiler struct {
	Table *InsTable
}

// NewValueProfiler allocates the device-side hash table. constantOnes,
// constantZeros and isScalar fields start at all-ones so atomicAnd can only
// clear bits, as in the paper.
func NewValueProfiler(ctx *cuda.Context) *ValueProfiler {
	inits := make([]uint64, vfFields)
	for d := 0; d < vfMaxDsts; d++ {
		inits[vfDst(d, vfOnes)] = 0xffffffff
		inits[vfDst(d, vfZeros)] = 0xffffffff
		inits[vfDst(d, vfScalar)] = 1
	}
	return &ValueProfiler{Table: NewInsTable(ctx, "sassi.value_stats", 4096, vfFields, inits)}
}

// Options returns the instrumentation specification: after all register
// writes, passing register info.
func (p *ValueProfiler) Options() sassi.Options {
	return sassi.Options{
		Where:        sassi.AfterRegWrites,
		What:         sassi.PassRegisterInfo,
		AfterHandler: "sassi_after_handler",
	}
}

// Handler translates the paper's Figure 9.
func (p *ValueProfiler) Handler() *sassi.Handler {
	return &sassi.Handler{
		Name: "sassi_after_handler",
		What: sassi.PassRegisterInfo,
		Fn: func(w *device.Warp, args sassi.HandlerArgs) {
			for l := w.First(); l >= 0; l = w.Next(l) {
				if !args.BP.InstrWillExecute(l) {
					w.Return(l)
				}
			}
			firstActive := device.Ffs(w.Ballot(device.FullMask)) - 1
			if firstActive < 0 {
				return
			}
			rp := args.RP
			nd := min(rp.NumGPRDsts(), vfMaxDsts)

			// The first active thread finds the instruction's counters;
			// at warp level its pointer needs no shuffle to reach the rest.
			leader := w.Lane(firstActive)
			stats := p.Table.Find(leader, args.BP.InsAddr())
			leader.AtomicAdd64(stats+vfWeight*8, 1)
			leader.WriteGlobal64(stats+vfNumDsts*8, uint64(nd))
			for d := 0; d < nd; d++ {
				reg := rp.GPRDst(d)
				var v, notV device.Vec32
				for l := w.First(); l >= 0; l = w.Next(l) {
					v[l] = rp.GetRegValue(l, reg)
					notV[l] = ^v[l]
				}

				// Track constant one- and zero-bits with atomic ANDs.
				w.AtomicAnd32(stats+uint64(vfDst(d, vfOnes))*8, &v)
				w.AtomicAnd32(stats+uint64(vfDst(d, vfZeros))*8, &notV)

				// Compare against the leader's value to decide scalarity.
				leaderValue := w.Shfl(&v, firstActive)
				var same uint32
				for l := w.First(); l >= 0; l = w.Next(l) {
					if v[l] == leaderValue[l] {
						same |= 1 << uint(l)
					}
				}
				allSame := w.All(same)
				leader.WriteGlobal64(stats+uint64(vfDst(d, vfRegNum))*8, uint64(reg))
				if !allSame {
					leader.AtomicAnd32(stats+uint64(vfDst(d, vfScalar))*8, 0)
				}
			}
		},
	}
}

// DstProfile is the decoded value profile of one destination register.
type DstProfile struct {
	RegNum       uint8
	ConstantOnes uint32 // bits that were 1 in every write
	ConstantZero uint32 // bits that were 0 in every write
	IsScalar     bool   // all lanes always agreed
}

// ConstBits returns how many of the 32 bits never varied.
func (d DstProfile) ConstBits() int {
	return bits.OnesCount32(d.ConstantOnes | d.ConstantZero)
}

// InsProfile is one instruction's decoded value profile.
type InsProfile struct {
	InsAddr int32
	Weight  uint64 // dynamic warp-level executions
	Dsts    []DstProfile
}

// Results decodes the per-instruction value profiles.
func (p *ValueProfiler) Results() ([]InsProfile, error) {
	entries, err := p.Table.ReadAll()
	if err != nil {
		return nil, err
	}
	out := make([]InsProfile, 0, len(entries))
	for _, e := range entries {
		ip := InsProfile{InsAddr: e.Key, Weight: e.Fields[vfWeight]}
		nd := int(e.Fields[vfNumDsts])
		if nd > vfMaxDsts {
			nd = vfMaxDsts
		}
		for d := 0; d < nd; d++ {
			ip.Dsts = append(ip.Dsts, DstProfile{
				RegNum:       uint8(e.Fields[vfDst(d, vfRegNum)]),
				ConstantOnes: uint32(e.Fields[vfDst(d, vfOnes)]),
				ConstantZero: uint32(e.Fields[vfDst(d, vfZeros)]),
				IsScalar:     e.Fields[vfDst(d, vfScalar)] != 0,
			})
		}
		out = append(out, ip)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].InsAddr < out[j].InsAddr })
	return out, nil
}

// ValueSummary is the paper's Table 2 row: dynamic and static percentages
// of constant register bits and scalar writes.
type ValueSummary struct {
	DynConstBitsPc  float64
	DynScalarPc     float64
	StatConstBitsPc float64
	StatScalarPc    float64
}

// Summarize computes Table 2 metrics: static metrics weigh each
// instruction equally; dynamic metrics weigh by execution frequency.
func (p *ValueProfiler) Summarize() (ValueSummary, error) {
	rows, err := p.Results()
	if err != nil {
		return ValueSummary{}, err
	}
	var s ValueSummary
	var dynBits, dynConst, dynWrites, dynScalar float64
	var statBits, statConst, statWrites, statScalar float64
	for _, r := range rows {
		for _, d := range r.Dsts {
			cb := float64(d.ConstBits())
			w := float64(r.Weight)
			dynBits += 32 * w
			dynConst += cb * w
			dynWrites += w
			if d.IsScalar {
				dynScalar += w
			}
			statBits += 32
			statConst += cb
			statWrites++
			if d.IsScalar {
				statScalar++
			}
		}
	}
	if dynBits > 0 {
		s.DynConstBitsPc = 100 * dynConst / dynBits
		s.DynScalarPc = 100 * dynScalar / dynWrites
	}
	if statBits > 0 {
		s.StatConstBitsPc = 100 * statConst / statBits
		s.StatScalarPc = 100 * statScalar / statWrites
	}
	return s, nil
}
