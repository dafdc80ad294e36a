package sassi_test

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"sassi/internal/cuda"
	"sassi/internal/device"
	"sassi/internal/mem"
	"sassi/internal/sass"
	"sassi/internal/sassi"
	"sassi/internal/sim"
)

// viewRead is what one dispatch's handler read through the views.
type viewRead struct {
	id         int32
	exec       uint32
	addrs      device.Vec64
	regs       []device.Vec32
	arg0, arg1 bool // read as stack rows (mask form only)
}

// readLanes reads the views lane by lane, the definition.
func readLanes(w *device.Warp, args sassi.HandlerArgs) viewRead {
	r := viewRead{id: args.BP.ID()}
	for l := w.First(); l >= 0; l = w.Next(l) {
		if args.BP.InstrWillExecute(l) {
			r.exec |= 1 << uint(l)
		}
		if args.MP != nil {
			r.addrs[l] = args.MP.Address(l)
		}
	}
	if rp := args.RP; rp != nil {
		for d := 0; d < rp.NumGPRDsts(); d++ {
			var v device.Vec32
			for l := w.First(); l >= 0; l = w.Next(l) {
				v[l] = rp.GetRegValue(l, rp.GPRDst(d))
			}
			r.regs = append(r.regs, v)
		}
	}
	return r
}

// readMasks reads the same through the mask and vector accessors.
func readMasks(w *device.Warp, args sassi.HandlerArgs) viewRead {
	r := viewRead{id: args.BP.ID()}
	r.arg0, r.arg1 = sassi.RowGrain(args)
	r.exec = args.BP.WillExecuteMask()
	if args.MP != nil {
		args.MP.Addresses(&r.addrs)
	}
	if rp := args.RP; rp != nil {
		for d := 0; d < rp.NumGPRDsts(); d++ {
			var v device.Vec32
			rp.GetRegValues(rp.GPRDst(d), &v)
			r.regs = append(r.regs, v)
		}
	}
	return r
}

// lane is the lane the perturbations below pick on.
const lane = 5

// moveObject copies lane's object behind ABI argument arg to 1 KiB lower on
// its stack, points the argument there, and lets edit change the copy.
func moveObject(arg uint8, size int, edit func(obj []byte)) func(w *sim.Warp) {
	return func(w *sim.Warp) {
		t := w.Thread(lane)
		off := t.ReadReg64(arg) - mem.LocalBase
		obj := make([]byte, size)
		if err := t.ReadLocal(off, obj); err != nil {
			panic(err)
		}
		edit(obj)
		if err := t.WriteLocal(off-1024, obj); err != nil {
			panic(err)
		}
		t.WriteReg64(arg, mem.LocalBase+off-1024)
	}
}

// pointAt points ABI argument arg of the lanes of mask at addr.
func pointAt(arg uint8, mask uint32, addr uint64) func(w *sim.Warp) {
	return func(w *sim.Warp) {
		for l := 0; l < sim.WarpSize; l++ {
			if mask&(1<<l) != 0 {
				w.Thread(l).WriteReg64(arg, addr)
			}
		}
	}
}

// viewsDispatch launches storeKernel instrumented per opts on one warp,
// applies perturb to the warp before its first dispatch and returns what
// read saw in that dispatch, or the launch's *HandlerError.
func viewsDispatch(t *testing.T, opts sassi.Options, perturb func(*sim.Warp), read func(*device.Warp, sassi.HandlerArgs) viewRead) (viewRead, *sassi.HandlerError) {
	t.Helper()
	prog := storeKernelWith(t, opts)
	ctx := cuda.NewContext(sim.MiniGPU())
	rt := sassi.NewRuntime(prog)
	var got viewRead
	first := true
	rt.MustRegister(&sassi.Handler{Name: "h", What: opts.What, Fn: func(w *device.Warp, args sassi.HandlerArgs) {
		if first {
			first = false
			got = read(w, args)
		}
	}})
	ctx.Device().Dispatcher = dispatcherFunc(func(dev *sim.Device, w *sim.Warp, id int) error {
		if first && perturb != nil {
			perturb(w)
		}
		return rt.Dispatch(dev, w, id)
	})
	buf := ctx.Malloc(4 * 32)
	_, err := ctx.LaunchKernel(prog, "k", sim.LaunchParams{Grid: sim.D1(1), Block: sim.D1(32), Args: []uint64{uint64(buf)}})
	if err == nil {
		return got, nil
	}
	var he *sassi.HandlerError
	if !errors.As(err, &he) {
		t.Fatalf("launch: %v, want a handler error or none", err)
	}
	return got, he
}

// TestViewsSeeOwnStores: a view's store through the spill slots —
// SetRegValue, SetPredValue, SetCCValue — is what the same dispatch reads
// back afterwards, through the lane and the vector accessors, even when
// the field's row was read before the store.
func TestViewsSeeOwnStores(t *testing.T) {
	opts := sassi.Options{Where: sassi.AfterRegWrites, What: sassi.PassRegisterInfo, AfterHandler: "h"}
	checked := false
	_, he := viewsDispatch(t, opts, nil, func(w *device.Warp, args sassi.HandlerArgs) viewRead {
		bp, rp := args.BP, args.RP
		p0 := bp.GetPredValue(lane, 0)
		bp.SetPredValue(lane, 0, !p0)
		if bp.GetPredValue(lane, 0) == p0 {
			t.Error("GetPredValue does not see SetPredValue")
		}
		cc := bp.GetCCValue(lane)
		bp.SetCCValue(lane, cc^1)
		if bp.GetCCValue(lane) != cc^1 {
			t.Error("GetCCValue does not see SetCCValue")
		}
		reg := rp.GPRDst(0)
		var before, after device.Vec32
		rp.GetRegValues(reg, &before)
		rp.SetRegValue(lane, reg, before[lane]^1)
		rp.GetRegValues(reg, &after)
		before[lane] ^= 1
		if after != before || rp.GetRegValue(lane, reg) != before[lane] {
			t.Errorf("GetRegValues after SetRegValue of lane %d: %v, want %v", lane, after, before)
		}
		checked = true
		return viewRead{}
	})
	if he != nil || !checked {
		t.Fatalf("dispatch: %v, checked %v", he, checked)
	}
}

// TestViewsSeeRetargetedObject: SetRegValue of an ABI argument register
// the injector did not spill (it is dead at the site) writes the register
// itself, so it moves that lane's object for the rest of the dispatch.
// Every later read goes through the new pointer, in the lane form and the
// mask form alike — here a wild one, which fails both forms with the same
// error at that lane.
func TestViewsSeeRetargetedObject(t *testing.T) {
	opts := sassi.Options{Where: sassi.AfterRegWrites, What: sassi.PassRegisterInfo, AfterHandler: "h"}
	var ptr [2]uint32 // what lane's ABI argument 0 pair holds after the stores
	retarget := func(read func(*device.Warp, sassi.HandlerArgs)) func(*device.Warp, sassi.HandlerArgs) viewRead {
		return func(w *device.Warp, args sassi.HandlerArgs) viewRead {
			args.RP.SetRegValue(lane, sassi.ABIArg0, 0x10)
			args.RP.SetRegValue(lane, sassi.ABIArg0+1, 0)
			c := w.Lane(lane)
			ptr = [2]uint32{c.ReadReg(sassi.ABIArg0), c.ReadReg(sassi.ABIArg0 + 1)}
			read(w, args)
			return viewRead{}
		}
	}
	_, laneErr := viewsDispatch(t, opts, nil, retarget(func(w *device.Warp, args sassi.HandlerArgs) {
		for l := w.First(); l >= 0; l = w.Next(l) {
			_ = args.BP.InstrWillExecute(l)
		}
	}))
	if ptr != [2]uint32{0x10, 0} {
		t.Fatalf("lane %d's argument 0 holds %#x after SetRegValue: the site spilled it", lane, ptr)
	}
	_, maskErr := viewsDispatch(t, opts, nil, retarget(func(w *device.Warp, args sassi.HandlerArgs) {
		_ = args.BP.WillExecuteMask()
	}))
	if laneErr == nil || maskErr == nil {
		t.Fatalf("lane form error %v, mask form error %v: want both to fail", laneErr, maskErr)
	}
	var lf, mf *mem.Fault
	if !errors.As(laneErr, &lf) || !errors.As(maskErr, &mf) {
		t.Fatalf("lane form %v, mask form %v: want memory faults", laneErr, maskErr)
	}
	le, me := *laneErr, *maskErr
	le.Err, me.Err = nil, nil
	if *lf != *mf || lf.Addr != 0x14 || le != me || le.Lane != lane {
		t.Errorf("lane form %+v (%+v), mask form %+v (%+v): want a load at 0x14 by lane %d", le, *lf, me, *mf, lane)
	}
}

// storeKernelWith is out[gtid] = gtid instrumented per opts.
func storeKernelWith(t *testing.T, opts sassi.Options) *sass.Program {
	t.Helper()
	prog := storeProgram(t)
	if err := sassi.Instrument(prog, opts); err != nil {
		t.Fatal(err)
	}
	return prog
}

// TestViewsFallback: the mask and vector accessors read what the lane
// accessors read — the row path when every lane's object is at one stack
// offset, lane by lane when one lane's object was moved elsewhere on its
// stack — and fail where they fail: a wild pointer in one lane, or one
// stack offset out of bounds for every lane, fails the dispatch with the
// same *sassi.HandlerError (lane, site, PC and *mem.Fault field for field)
// from either form.
func TestViewsFallback(t *testing.T) {
	memOpts := sassi.Options{Where: sassi.BeforeMem, What: sassi.PassMemoryInfo, BeforeHandler: "h"}
	regOpts := sassi.Options{Where: sassi.AfterRegWrites, What: sassi.PassRegisterInfo, AfterHandler: "h"}
	flipWillExec := func(obj []byte) { obj[4] ^= 1 }
	cases := []struct {
		name    string
		opts    sassi.Options
		perturb func(*sim.Warp)
		// rows is whether the mask form reads arguments 0 and 1 as rows.
		rows [2]bool
		// fault, faultLane and site are the wanted fault's address, the
		// lane it names and the site the error names, when one is wanted.
		fault     uint64
		faultLane int
		site      int32
	}{
		{"uniform/mem", memOpts, nil, [2]bool{true, true}, 0, 0, 0},
		{"uniform/reg", regOpts, nil, [2]bool{true, true}, 0, 0, 0},
		{"moved-bp/mem", memOpts, moveObject(sassi.ABIArg0, 0x70, flipWillExec), [2]bool{false, true}, 0, 0, 0},
		{"moved-bp/reg", regOpts, moveObject(sassi.ABIArg0, 0x70, flipWillExec), [2]bool{false, true}, 0, 0, 0},
		{"moved-mp", memOpts, moveObject(sassi.ABIArg1, 0x18, func(obj []byte) { obj[1] ^= 0x40 }), [2]bool{true, false}, 0, 0, 0},
		{"wild-bp", memOpts, pointAt(sassi.ABIArg0, 1<<lane, 0x10), [2]bool{}, 0x14, lane, 0},
		{"wild-mp", memOpts, pointAt(sassi.ABIArg1, 1<<lane, 0x10), [2]bool{}, 0x10, lane, 0},
		// One offset, out of bounds for every lane: the row's bounds check
		// fails and the lane-by-lane loads name the lowest lane; with the
		// site object itself out of bounds, already its ID faults and the
		// site is unknown.
		{"out-of-bounds-mp", memOpts, pointAt(sassi.ABIArg1, ^uint32(0), mem.LocalBase+1<<20), [2]bool{}, mem.LocalBase + 1<<20, 0, 0},
		{"out-of-bounds-bp", memOpts, pointAt(sassi.ABIArg0, ^uint32(0), mem.LocalBase+1<<20), [2]bool{}, mem.LocalBase + 1<<20, 0, -1},
	}
	plain := map[string]viewRead{} // unperturbed reads, by instrumentation
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			key := fmt.Sprint(tc.opts.What)
			laneRead, laneErr := viewsDispatch(t, tc.opts, tc.perturb, readLanes)
			maskRead, maskErr := viewsDispatch(t, tc.opts, tc.perturb, readMasks)
			if tc.fault != 0 {
				if laneErr == nil || maskErr == nil {
					t.Fatalf("lane form error %v, mask form error %v: want both to fail", laneErr, maskErr)
				}
				var lf, mf *mem.Fault
				if !errors.As(laneErr, &lf) || !errors.As(maskErr, &mf) {
					t.Fatalf("lane form %v, mask form %v: want memory faults", laneErr, maskErr)
				}
				if *lf != *mf || lf.Addr != tc.fault || lf.Write {
					t.Errorf("faults: lane form %+v, mask form %+v, want a load at %#x", *lf, *mf, tc.fault)
				}
				le, me := *laneErr, *maskErr
				le.Err, me.Err = nil, nil
				if le != me || le.Lane != tc.faultLane || le.Site != tc.site {
					t.Errorf("handler errors: lane form %+v, mask form %+v, want lane %d, site %d", le, me, tc.faultLane, tc.site)
				}
				return
			}
			if laneErr != nil || maskErr != nil {
				t.Fatalf("lane form error %v, mask form error %v", laneErr, maskErr)
			}
			if [2]bool{maskRead.arg0, maskRead.arg1} != tc.rows {
				t.Errorf("read arguments as rows %v, want %v", [2]bool{maskRead.arg0, maskRead.arg1}, tc.rows)
			}
			maskRead.arg0, maskRead.arg1 = false, false
			if !reflect.DeepEqual(laneRead, maskRead) {
				t.Errorf("mask form read %+v, lane form %+v", maskRead, laneRead)
			}
			if tc.perturb == nil {
				plain[key] = laneRead
				return
			}
			// The moved object is lane's own: only lane reads the edit.
			want := plain[key]
			want.regs = append([]device.Vec32(nil), want.regs...)
			switch tc.name {
			case "moved-bp/mem", "moved-bp/reg":
				want.exec ^= 1 << lane
			case "moved-mp":
				want.addrs[lane] ^= 0x40 << 8
			}
			if !reflect.DeepEqual(laneRead, want) {
				t.Errorf("read %+v, want %+v", laneRead, want)
			}
		})
	}
}
