package binverify

import (
	"strings"
	"testing"

	"tm3270/internal/config"
	"tm3270/internal/encode"
	"tm3270/internal/isa"
	"tm3270/internal/regalloc"
	"tm3270/internal/sched"
	"tm3270/internal/workloads"
)

const testBase = 0x0100_0000

// stream builds a decoded instruction stream by hand. Addresses advance
// by a fixed stride so tests can compute jump targets with addrOf.
func stream(instrs ...[5]*encode.DecOp) []encode.DecInstr {
	const stride = 28
	dec := make([]encode.DecInstr, len(instrs))
	for i := range instrs {
		dec[i] = encode.DecInstr{Addr: testBase + uint32(i*stride), Size: stride, Slots: instrs[i]}
	}
	return dec
}

func addrOf(i int) uint32 { return testBase + uint32(i*28) }

func op(oc isa.Opcode, g, s1, s2, d isa.Reg) *encode.DecOp {
	return &encode.DecOp{Opcode: uint16(oc), Guard: g, S1: s1, S2: s2, D: d}
}

func jmp(oc isa.Opcode, g isa.Reg, target uint32) *encode.DecOp {
	return &encode.DecOp{Opcode: uint16(oc), Guard: g, Target: target}
}

func ext(s1, s2, d isa.Reg) *encode.DecOp {
	return &encode.DecOp{Opcode: encode.SuperExtOpcode, Guard: isa.R1, S1: s1, S2: s2, D: d}
}

// checks collects the Check field of every diagnostic.
func checks(r *Report) []string {
	var cs []string
	for i := range r.Diags {
		cs = append(cs, r.Diags[i].Check)
	}
	return cs
}

// wantCheck asserts at least one diagnostic of the given check and
// severity landed at the given instruction index.
func wantCheck(t *testing.T, r *Report, check string, sev Severity, idx int) {
	t.Helper()
	for i := range r.Diags {
		d := &r.Diags[i]
		if d.Check == check && d.Severity == sev && d.Index == idx {
			if d.PC == 0 {
				t.Errorf("%s diagnostic has no PC: %s", check, d.String())
			}
			return
		}
	}
	t.Errorf("no %s %s at instr %d; got %v", sev, check, idx, checks(r))
}

func wantOnly(t *testing.T, r *Report, check string) {
	t.Helper()
	for i := range r.Diags {
		if r.Diags[i].Check != check {
			t.Errorf("unexpected diagnostic: %s", r.Diags[i].String())
		}
	}
}

var r2, r3, r4, r5, r10, r11, r12, r13, r14, r15 = isa.Reg(2), isa.Reg(3),
	isa.Reg(4), isa.Reg(5), isa.Reg(10), isa.Reg(11), isa.Reg(12),
	isa.Reg(13), isa.Reg(14), isa.Reg(15)

// compileWorkload runs a workload through the schedule/allocate/encode/
// decode pipeline and builds the full semantic verification options
// (entry values, memory map, loop-bound annotations) — the same
// contract runner.(*Artifact).VerifyOptions ships to production
// callers, rebuilt here because the runner package imports this one.
func compileWorkload(t testing.TB, w *workloads.Spec, tgt config.Target) ([]encode.DecInstr, *Options, error) {
	t.Helper()
	code, err := sched.Schedule(w.Prog, tgt)
	if err != nil {
		return nil, nil, err
	}
	rm, err := regalloc.Allocate(w.Prog)
	if err != nil {
		t.Fatalf("regalloc: %v", err)
	}
	enc, err := encode.Encode(code, rm, testBase)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	dec, err := encode.Decode(enc.Bytes, testBase, len(code.Instrs))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	opts := &Options{EntryValues: map[isa.Reg]uint32{}, MemMap: w.Regions}
	for v, val := range w.Args {
		opts.EntryDefined = append(opts.EntryDefined, rm.Reg(v))
		opts.EntryValues[rm.Reg(v)] = val
	}
	if len(w.Prog.LoopBounds) > 0 {
		opts.LoopBounds = map[uint32]int{}
		for label, n := range w.Prog.LoopBounds {
			if idx, ok := code.Labels[label]; ok {
				opts.LoopBounds[enc.Addr[idx]] = n
			}
		}
	}
	return dec, opts, nil
}

// TestWorkloadsVerifyClean is the acceptance gate: every shipped
// workload, scheduled and encoded for each target configuration it
// supports, must verify with zero diagnostics of any severity under the
// full semantic options — entry values, declared memory map and
// loop-bound annotations. Zero false positives from the range and loop
// analyses is what lets `make lint` treat any finding as a regression.
func TestWorkloadsVerifyClean(t *testing.T) {
	p := workloads.Small()
	for _, tgt := range []config.Target{
		config.ConfigA(), config.ConfigB(), config.ConfigC(), config.ConfigD(),
	} {
		for _, name := range workloads.Names() {
			w, err := workloads.ByName(name, p)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			dec, opts, err := compileWorkload(t, w, tgt)
			if err != nil {
				if w.TM3270Only {
					continue // super-op workloads do not schedule on earlier targets
				}
				t.Fatalf("%s on %s: schedule: %v", name, tgt.Name, err)
			}
			rep := Verify(dec, &tgt, opts)
			if !rep.Clean() {
				var b strings.Builder
				rep.Write(&b)
				t.Errorf("%s on %s: %d diagnostics:\n%s", name, tgt.Name, len(rep.Diags), b.String())
			}
		}
	}
}

func TestLatencyHazardStraightLine(t *testing.T) {
	tgt := config.TM3270()
	dec := stream(
		[5]*encode.DecOp{nil, op(isa.OpIMUL, isa.R1, r2, r3, r10)},
		[5]*encode.DecOp{op(isa.OpIADD, isa.R1, r10, r2, r11)},
	)
	rep := Verify(dec, &tgt, nil)
	wantCheck(t, rep, CheckLatency, Error, 1)
	wantOnly(t, rep, CheckLatency)
}

// TestLatencyHazardAcrossJumpEdge puts the producing write in a taken
// jump's delay slots and the consuming read at the jump target: the
// hazard flows along the CFG jump edge, which no intra-block rule sees.
func TestLatencyHazardAcrossJumpEdge(t *testing.T) {
	tgt := config.TM3260() // 3 delay slots keep the stream small
	dec := stream(
		[5]*encode.DecOp{nil, jmp(isa.OpJMPI, isa.R1, addrOf(5))},
		[5]*encode.DecOp{},
		[5]*encode.DecOp{},
		[5]*encode.DecOp{nil, op(isa.OpIMUL, isa.R1, r2, r3, r10)}, // delay slot
		[5]*encode.DecOp{}, // skipped
		[5]*encode.DecOp{op(isa.OpIADD, isa.R1, r10, r2, r11)}, // jump target
	)
	rep := Verify(dec, &tgt, nil)
	wantCheck(t, rep, CheckLatency, Error, 5)
	wantOnly(t, rep, CheckLatency)
}

// TestLatencyJoinOverPredecessors builds a diamond where only the
// fallthrough path leaves a write in flight: the may-join must still
// report the hazard at the merge point.
func TestLatencyJoinOverPredecessors(t *testing.T) {
	tgt := config.TM3260()
	dec := stream(
		[5]*encode.DecOp{nil, jmp(isa.OpJMPT, r4, addrOf(6))}, // conditional
		[5]*encode.DecOp{},
		[5]*encode.DecOp{},
		[5]*encode.DecOp{}, // redirect node: taken -> 6, else -> 4
		[5]*encode.DecOp{nil, op(isa.OpIMUL, isa.R1, r2, r3, r10)},
		[5]*encode.DecOp{},
		[5]*encode.DecOp{op(isa.OpIADD, isa.R1, r10, r2, r11)}, // merge
	)
	rep := Verify(dec, &tgt, nil)
	wantCheck(t, rep, CheckLatency, Error, 6)
	wantOnly(t, rep, CheckLatency)
}

func TestSlotViolation(t *testing.T) {
	tgt := config.TM3270()
	// The shifter lives in slots 1-2; slot 3 is illegal.
	dec := stream([5]*encode.DecOp{nil, nil, op(isa.OpASL, isa.R1, r2, r3, r10)})
	rep := Verify(dec, &tgt, nil)
	wantCheck(t, rep, CheckSlot, Error, 0)
	wantOnly(t, rep, CheckSlot)
}

func TestLoadSlotIsConfigDependent(t *testing.T) {
	// Slot 4 loads are legal on the TM3260, illegal on the TM3270.
	dec := stream([5]*encode.DecOp{nil, nil, nil, op(isa.OpLD32D, isa.R1, r2, 0, r10)})
	t60, t70 := config.TM3260(), config.TM3270()
	if rep := Verify(dec, &t60, nil); !rep.Clean() {
		t.Errorf("TM3260 slot-4 load flagged: %v", checks(rep))
	}
	rep := Verify(dec, &t70, nil)
	wantCheck(t, rep, CheckSlot, Error, 0)
}

func TestHardwiredWrite(t *testing.T) {
	tgt := config.TM3270()
	dec := stream([5]*encode.DecOp{op(isa.OpIADD, isa.R1, r2, r3, isa.R0)})
	rep := Verify(dec, &tgt, nil)
	wantCheck(t, rep, CheckHardwired, Error, 0)
}

func TestTwoSlotPairing(t *testing.T) {
	tgt := config.TM3270()
	t.Run("missing-ext", func(t *testing.T) {
		dec := stream([5]*encode.DecOp{nil, op(isa.OpSUPERDUALIMIX, isa.R1, r2, r3, r10)})
		rep := Verify(dec, &tgt, nil)
		wantCheck(t, rep, CheckPair, Error, 0)
	})
	t.Run("stray-ext", func(t *testing.T) {
		dec := stream([5]*encode.DecOp{ext(r2, r3, r10)})
		rep := Verify(dec, &tgt, nil)
		wantCheck(t, rep, CheckPair, Error, 0)
	})
	t.Run("well-paired", func(t *testing.T) {
		dec := stream([5]*encode.DecOp{nil, op(isa.OpSUPERDUALIMIX, isa.R1, r2, r3, r10), ext(r4, r5, r11)})
		rep := Verify(dec, &tgt, nil)
		if !rep.Clean() {
			t.Errorf("paired super op flagged: %v", checks(rep))
		}
	})
	t.Run("pair-in-wrong-slot", func(t *testing.T) {
		// Super pair starting in slot 3 instead of 2.
		dec := stream([5]*encode.DecOp{nil, nil, op(isa.OpSUPERDUALIMIX, isa.R1, r2, r3, r10), ext(r4, r5, r11)})
		rep := Verify(dec, &tgt, nil)
		wantCheck(t, rep, CheckSlot, Error, 0)
	})
}

func TestUnsupportedOpOnTM3260(t *testing.T) {
	tgt := config.TM3260()
	dec := stream([5]*encode.DecOp{nil, op(isa.OpSUPERDUALIMIX, isa.R1, r2, r3, r10), ext(r4, r5, r11)})
	rep := Verify(dec, &tgt, nil)
	wantCheck(t, rep, CheckUnsupported, Error, 0)
}

func TestJumpTarget(t *testing.T) {
	tgt := config.TM3260()
	t.Run("off-boundary", func(t *testing.T) {
		dec := stream(
			[5]*encode.DecOp{nil, jmp(isa.OpJMPI, isa.R1, addrOf(1)+5)},
			[5]*encode.DecOp{}, [5]*encode.DecOp{}, [5]*encode.DecOp{}, [5]*encode.DecOp{},
		)
		rep := Verify(dec, &tgt, nil)
		wantCheck(t, rep, CheckJumpTarget, Error, 0)
	})
	t.Run("end-address-is-legal-exit", func(t *testing.T) {
		dec := stream(
			[5]*encode.DecOp{nil, jmp(isa.OpJMPI, isa.R1, addrOf(5))},
			[5]*encode.DecOp{}, [5]*encode.DecOp{}, [5]*encode.DecOp{}, [5]*encode.DecOp{},
		)
		rep := Verify(dec, &tgt, nil)
		if !rep.Clean() {
			t.Errorf("jump to image end flagged: %v", checks(rep))
		}
	})
}

func TestDelayWindowOverlap(t *testing.T) {
	tgt := config.TM3260()
	dec := stream(
		[5]*encode.DecOp{nil, jmp(isa.OpJMPI, isa.R1, addrOf(6))},
		[5]*encode.DecOp{nil, jmp(isa.OpJMPI, isa.R1, addrOf(6))},
		[5]*encode.DecOp{}, [5]*encode.DecOp{}, [5]*encode.DecOp{},
		[5]*encode.DecOp{}, [5]*encode.DecOp{},
	)
	rep := Verify(dec, &tgt, nil)
	wantCheck(t, rep, CheckDelayWindow, Error, 1)
}

func TestWAW(t *testing.T) {
	tgt := config.TM3270()
	t.Run("across-instructions", func(t *testing.T) {
		// imul r10 commits at issue+3; the iadd one instruction later
		// commits at issue+2, before it: write order inverted.
		dec := stream(
			[5]*encode.DecOp{nil, op(isa.OpIMUL, isa.R1, r2, r3, r10)},
			[5]*encode.DecOp{op(isa.OpIADD, isa.R1, r2, r2, r10)},
		)
		rep := Verify(dec, &tgt, nil)
		wantCheck(t, rep, CheckWAW, Error, 1)
	})
	t.Run("same-instruction", func(t *testing.T) {
		dec := stream([5]*encode.DecOp{
			op(isa.OpIADD, isa.R1, r2, r2, r10),
			op(isa.OpISUB, isa.R1, r3, r2, r10),
		})
		rep := Verify(dec, &tgt, nil)
		wantCheck(t, rep, CheckWAW, Error, 0)
	})
}

func TestUninitRead(t *testing.T) {
	tgt := config.TM3270()
	dec := stream(
		[5]*encode.DecOp{op(isa.OpIADD, isa.R1, r2, r3, r10)},
	)
	rep := Verify(dec, &tgt, &Options{EntryDefined: []isa.Reg{r2}})
	wantCheck(t, rep, CheckUninit, Warn, 0)
	// With r3 declared too, the read is clean.
	rep = Verify(dec, &tgt, &Options{EntryDefined: []isa.Reg{r2, r3}})
	if !rep.Clean() {
		t.Errorf("fully-defined read flagged: %v", checks(rep))
	}
	// With the analysis off (nil options), no finding.
	if rep := Verify(dec, &tgt, nil); !rep.Clean() {
		t.Errorf("uninit analysis ran without options: %v", checks(rep))
	}
}

func TestGuardedWriteDefines(t *testing.T) {
	tgt := config.TM3270()
	// An if-converted (guarded) write still defines its register...
	dec := stream(
		[5]*encode.DecOp{op(isa.OpIADD, r4, r2, r2, r10)}, // guarded by r4
		[5]*encode.DecOp{op(isa.OpIADD, isa.R1, r10, r2, r11)},
	)
	rep := Verify(dec, &tgt, &Options{EntryDefined: []isa.Reg{r2, r4}})
	if !rep.Clean() {
		t.Errorf("guarded write flagged: %v", checks(rep))
	}
	// ...but a statically dead write (guard r0) does not.
	dec = stream(
		[5]*encode.DecOp{op(isa.OpIADD, isa.R0, r2, r2, r10)},
		[5]*encode.DecOp{op(isa.OpIADD, isa.R1, r10, r2, r11)},
	)
	rep = Verify(dec, &tgt, &Options{EntryDefined: []isa.Reg{r2, r4}})
	wantCheck(t, rep, CheckUninit, Warn, 1)
}

func TestUnreachable(t *testing.T) {
	tgt := config.TM3260()
	dec := stream(
		[5]*encode.DecOp{nil, jmp(isa.OpJMPI, isa.R1, addrOf(5))},
		[5]*encode.DecOp{}, [5]*encode.DecOp{}, [5]*encode.DecOp{},
		[5]*encode.DecOp{op(isa.OpIADD, isa.R1, r2, r2, r10)}, // skipped forever
		[5]*encode.DecOp{},
	)
	rep := Verify(dec, &tgt, nil)
	wantCheck(t, rep, CheckUnreachable, Warn, 4)
	wantOnly(t, rep, CheckUnreachable)
}

func TestWritebackPortPressure(t *testing.T) {
	tgt := config.TM3270()
	// Six results commit in the same cycle: 2 muls (lat 3) + 2 DSP adds
	// (lat 2) + 2 ALU adds (lat 1) all land together.
	dec := stream(
		[5]*encode.DecOp{nil, op(isa.OpIMUL, isa.R1, r2, r3, r10), op(isa.OpIMUL, isa.R1, r2, r3, r11)},
		[5]*encode.DecOp{op(isa.OpDSPIADD, isa.R1, r2, r3, r12), nil, op(isa.OpDSPIADD, isa.R1, r2, r3, r13)},
		[5]*encode.DecOp{op(isa.OpIADD, isa.R1, r2, r3, r14), op(isa.OpIADD, isa.R1, r2, r3, r15)},
	)
	rep := Verify(dec, &tgt, nil)
	wantCheck(t, rep, CheckWBPorts, Error, 2)
}

func TestMaxLoadsPerInstr(t *testing.T) {
	t60 := config.TM3260()
	// Two loads per instruction are legal on the TM3260 (slots 4+5)...
	dec := stream([5]*encode.DecOp{nil, nil, nil,
		op(isa.OpLD32D, isa.R1, r2, 0, r10),
		op(isa.OpLD32D, isa.R1, r3, 0, r11)})
	if rep := Verify(dec, &t60, nil); !rep.Clean() {
		t.Errorf("TM3260 dual load flagged: %v", checks(rep))
	}
	// ...but the TM3270 issues at most one (and only in slot 5).
	t70 := config.TM3270()
	rep := Verify(dec, &t70, nil)
	wantCheck(t, rep, CheckLoadIssue, Error, 0)
}

func TestEmptyStream(t *testing.T) {
	tgt := config.TM3270()
	if rep := Verify(nil, &tgt, nil); !rep.Clean() {
		t.Errorf("empty stream flagged: %v", checks(rep))
	}
}

// TestRegisterOutOfRange feeds a hand-built stream naming registers
// past the 128-entry file (Decode cannot produce one) with every
// analysis on: the op is reported, never indexed.
func TestRegisterOutOfRange(t *testing.T) {
	tgt := config.TM3270()
	dec := stream(
		[5]*encode.DecOp{op(isa.OpIADD, isa.R1, r2, isa.Reg(200), r10)},
		[5]*encode.DecOp{op(isa.OpIADD, isa.Reg(130), r2, r3, r11)},
		[5]*encode.DecOp{op(isa.OpIADD, isa.R1, r2, r3, isa.Reg(255))},
	)
	opts := &Options{EntryDefined: []isa.Reg{r2, r3, isa.Reg(140)},
		EntryValues: map[isa.Reg]uint32{r2: 1, isa.Reg(140): 2}}
	rep := Verify(dec, &tgt, opts)
	for i := 0; i < 3; i++ {
		wantCheck(t, rep, CheckEncoding, Error, i)
	}
	if len(rep.Diags) != 3 {
		t.Errorf("want 3 diagnostics, got %v", checks(rep))
	}
}

func TestDiagString(t *testing.T) {
	tgt := config.TM3270()
	dec := stream([5]*encode.DecOp{nil, nil, op(isa.OpASL, isa.R1, r2, r3, r10)})
	rep := Verify(dec, &tgt, nil)
	if len(rep.Diags) != 1 {
		t.Fatalf("want 1 diagnostic, got %v", checks(rep))
	}
	s := rep.Diags[0].String()
	for _, want := range []string{"error", "pc=0x1000000", "slot 3", "asl", "[slot]"} {
		if !strings.Contains(s, want) {
			t.Errorf("diagnostic %q missing %q", s, want)
		}
	}
	if rep.Errors() != 1 || rep.Warnings() != 0 {
		t.Errorf("Errors/Warnings = %d/%d, want 1/0", rep.Errors(), rep.Warnings())
	}
}
