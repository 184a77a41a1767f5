package faults

import (
	"fmt"
	"math/rand"

	"tm3270/internal/binverify"
	"tm3270/internal/config"
	"tm3270/internal/encode"
	"tm3270/internal/isa"
	"tm3270/internal/mem"
	"tm3270/internal/prefetch"
	"tm3270/internal/refmodel"
	"tm3270/internal/runner"
	"tm3270/internal/tmsim"
	"tm3270/internal/workloads"
)

// StaticOutcome classifies one mutated binary image.
type StaticOutcome int

const (
	// StaticRejected: the mutated image no longer decodes — the template
	// chain or an opcode field broke, and the decoder itself is the gate.
	StaticRejected StaticOutcome = iota
	// StaticMasked: the image decodes to the identical instruction
	// stream (the flip landed in dead padding bits), so there is nothing
	// for any verifier to see.
	StaticMasked
	// StaticFlagged: the image decodes to a different stream and the
	// static verifier reports at least one diagnostic — the corruption
	// is caught before a single cycle executes.
	StaticFlagged
	// StaticMissed: the image decodes to a different stream that the
	// verifier considers well-formed (e.g. one register operand swapped
	// for another live one).
	StaticMissed
)

// String names the outcome for campaign reports.
func (o StaticOutcome) String() string {
	switch o {
	case StaticRejected:
		return "rejected"
	case StaticMasked:
		return "masked"
	case StaticFlagged:
		return "flagged"
	}
	return "missed"
}

// mutTarget is one workload prepared for image-mutation campaigns: the
// encoded golden image, its decoded baseline stream, the binverify
// semantic contract, and the initial memory image.
type mutTarget struct {
	w        *workloads.Spec
	enc      []byte // encoded golden image
	n        int    // instruction count
	baseline []encode.DecInstr
	// opts is the full semantic contract — entry values, declared
	// memory map, loop-bound annotations — so mutants that corrupt an
	// address computation or a loop exit land in the range and loop
	// analyses, not only the structural ones. Its EntryValues are also
	// the physical entry arguments of every reference run.
	opts *binverify.Options
	init *mem.Func // initial memory image (Init applied)
}

// newMutTarget compiles and verifies the workload's golden image. The
// baseline must be verifier-clean so every diagnostic on a mutant is
// attributable to the flip.
func newMutTarget(name string, cfg *MatrixConfig) (*mutTarget, error) {
	w, err := workloads.ByName(name, *cfg.Params)
	if err != nil {
		return nil, err
	}
	art, err := runner.CompileWorkload(w, *cfg.Target)
	if err != nil {
		return nil, err
	}
	n := art.SchedInstrs()
	baseline, err := encode.Decode(art.Enc.Bytes, tmsim.CodeBase, n)
	if err != nil {
		return nil, fmt.Errorf("baseline decode: %w", err)
	}
	opts := art.VerifyOptions(w)
	if rep := binverify.Verify(baseline, cfg.Target, opts); !rep.Clean() {
		return nil, fmt.Errorf("baseline image is not verifier-clean (%d diagnostics)", len(rep.Diags))
	}
	init := mem.NewFunc()
	if w.Init != nil {
		if err := w.Init(init); err != nil {
			return nil, fmt.Errorf("init: %w", err)
		}
	}
	return &mutTarget{w: w, enc: art.Enc.Bytes, n: n, baseline: baseline, opts: opts, init: init}, nil
}

// mutate writes the seeded single-bit mutant of the golden image into
// img (which must have the image's length).
func (t *mutTarget) mutate(seed int64, img []byte) {
	rng := rand.New(rand.NewSource(seed))
	copy(img, t.enc)
	bit := rng.Intn(len(img) * 8)
	img[bit/8] ^= 1 << (bit % 8)
}

// newRef builds a reference machine over dec seeded with the initial
// image and entry arguments, plus — for mseed != 0 — the machine-seed
// perturbation: every non-argument register gets a seeded random
// value, and every declared-region byte the workload's Init left
// unwritten gets a seeded random fill. The baseline is verifier-clean
// (no reads of may-uninitialized registers, every address proven
// inside the declared regions), so the golden outcome stays trap-free
// under every machine seed — but a mutant that reads a stray register
// or a stray address now sees seed-dependent noise instead of the
// masking zeros a single fixed initial state offers.
func (t *mutTarget) newRef(dec []encode.DecInstr, target *config.Target, mseed int64) *refmodel.Machine {
	image := refmodel.NewMem()
	for _, pa := range t.init.PageAddrs() {
		image.WriteBytes(pa, t.init.ReadBytes(pa, 1<<12))
	}
	if mseed != 0 {
		rng := rand.New(rand.NewSource(mseed * 0x9E3779B9))
		for _, reg := range t.w.Regions {
			for addr := reg.Lo; addr < reg.Hi; addr++ {
				if prefetch.IsMMIO(addr) || t.init.Defined(addr, 1) {
					continue
				}
				image.SetByte(addr, byte(rng.Intn(256)))
			}
		}
	}
	ref := refmodel.New(dec, *target, image)
	if mseed != 0 {
		rng := rand.New(rand.NewSource(mseed ^ 0x5DEECE66D))
		for r := isa.Reg(2); int(r) < isa.NumRegs; r++ {
			if _, arg := t.opts.EntryValues[r]; !arg {
				ref.SetReg(r, rng.Uint32())
			}
		}
	}
	for r, val := range t.opts.EntryValues {
		ref.SetReg(r, val)
	}
	return ref
}

// goldenRun executes the pristine binary under one machine seed; a
// trapped golden run is a harness failure, not a finding.
func (t *mutTarget) goldenRun(target *config.Target, mseed int64) (*golden, error) {
	ref := t.newRef(t.baseline, target, mseed)
	if tr := ref.Run(); tr != nil {
		return nil, fmt.Errorf("golden run (machine seed %d) trapped: %v", mseed, tr)
	}
	return &golden{issue: ref.Issue(), regs: ref.Regs(), mem: ref.Mem, mmio: ref.MMIORegs()}, nil
}

// classify runs the static gate over a mutated image: the decoder,
// the stream comparison against the baseline, then the binverify
// static verifier. For StaticMissed mutants the decoded stream is
// returned for the differential stage.
func (t *mutTarget) classify(img []byte, target *config.Target) (StaticOutcome, []encode.DecInstr) {
	dec, err := encode.Decode(img, tmsim.CodeBase, t.n)
	switch {
	case err != nil:
		return StaticRejected, nil
	case streamsEqual(dec, t.baseline):
		return StaticMasked, nil
	case !binverify.Verify(dec, target, t.opts).Clean():
		return StaticFlagged, nil
	}
	return StaticMissed, dec
}

// streamsEqual compares two decoded streams slot by slot.
func streamsEqual(a, b []encode.DecInstr) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Addr != b[i].Addr || a[i].Size != b[i].Size {
			return false
		}
		for s := 0; s < 5; s++ {
			x, y := a[i].Slots[s], b[i].Slots[s]
			switch {
			case (x == nil) != (y == nil):
				return false
			case x != nil && *x != *y:
				return false
			}
		}
	}
	return true
}
