// Package sched implements the VLIW scheduler: it packs the guarded
// operations of a kernel into five-slot VLIW instructions for a specific
// target configuration, honoring issue-slot constraints, functional-unit
// placement, exposed operation latencies, the target's jump delay slots
// and its load-issue restrictions.
//
// The TM3270 pipeline has no interlocks apart from memory stalls: the
// schedule itself is the correctness guarantee, exactly as for the
// production TriMedia compiler that this package stands in for.
// "Re-compiling" a kernel for the TM3260 versus the TM3270 is a call to
// Schedule with a different target.
package sched

import (
	"fmt"
	"slices"

	"tm3270/internal/config"
	"tm3270/internal/isa"
	"tm3270/internal/prog"
)

// WBPorts is the number of register-file write ports: at most this many
// results may commit in one cycle, and the scheduler spreads commits
// accordingly.
const WBPorts = 5

// SlotOp is the occupant of one issue slot.
type SlotOp struct {
	Op *prog.Op // nil when the slot is empty
	// Second marks the second slot of a two-slot operation; Op then
	// points at the same operation as the preceding slot.
	Second bool
}

// Instr is one VLIW instruction. Slots[0] is issue slot 1.
type Instr struct {
	Slots [5]SlotOp
}

// Empty reports whether the instruction carries no operations.
func (in *Instr) Empty() bool {
	for _, s := range in.Slots {
		if s.Op != nil {
			return false
		}
	}
	return true
}

// OpCount returns the number of operations in the instruction (a
// two-slot operation counts once).
func (in *Instr) OpCount() int {
	n := 0
	for _, s := range in.Slots {
		if s.Op != nil && !s.Second {
			n++
		}
	}
	return n
}

// Code is a scheduled kernel.
type Code struct {
	Name   string
	Target config.Target
	Instrs []Instr
	// Labels maps branch labels to instruction indices.
	Labels map[string]int
	// BlockStart[i] is the first instruction index of source block i.
	BlockStart []int
	// LoopBounds carries the source program's loop-bound annotations
	// (label -> max header entries) through to the binary verifier.
	LoopBounds map[string]int

	// SrcOps is the number of source operations scheduled (excluding
	// padding); PadInstrs counts fully-empty padding instructions.
	SrcOps    int
	PadInstrs int
}

// OpsPerInstr returns the achieved operation density (OPI upper bound).
func (c *Code) OpsPerInstr() float64 {
	if len(c.Instrs) == 0 {
		return 0
	}
	return float64(c.SrcOps) / float64(len(c.Instrs))
}

// Schedule compiles p for the target. It returns an error if the kernel
// uses operations the target does not implement.
func Schedule(p *prog.Program, t config.Target) (*Code, error) {
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("sched %s: %w", p.Name, err)
	}
	if err := p.Validate(); err != nil {
		return nil, fmt.Errorf("sched: %w", err)
	}
	c := &Code{Name: p.Name, Target: t, Labels: make(map[string]int), LoopBounds: p.LoopBounds}
	s := scratch{numVRegs: p.NumVRegs}
	for _, b := range p.Blocks {
		start := len(c.Instrs)
		c.BlockStart = append(c.BlockStart, start)
		if b.Label != "" {
			c.Labels[b.Label] = start
		}
		if err := s.scheduleBlock(c, b, &t); err != nil {
			return nil, fmt.Errorf("sched %s: block %q: %w", p.Name, b.Label, err)
		}
	}
	for i := range c.Instrs {
		if c.Instrs[i].Empty() {
			c.PadInstrs++
		}
	}
	return c, nil
}

// slotsFor returns the issue slots op may use on the target (the first
// slot of the pair for two-slot operations).
func slotsFor(op *prog.Op, t *config.Target) isa.SlotMask {
	info := op.Info()
	if info.Class == isa.UnitLoad {
		return t.LoadSlots
	}
	return isa.DefaultSlots(info.Class)
}

// dep is one scheduling dependence edge: the op at the far end (the
// predecessor in a block's predecessor lists, the successor in its
// successor lists) and the minimum issue distance between the two.
// Memory dependences make edge counts quadratic in a block's memory
// ops, so the fields are 32-bit to halve the edge lists.
type dep struct {
	op     int32
	weight int32
}

// use is one node of a register's chain of reads since its last
// definition (next is -1 at the end of the chain).
type use struct{ op, next int32 }

// scratch is one Schedule call's working storage. Blocks are scheduled
// one after another, so every slice is reused from block to block and a
// program of many small blocks does not allocate per block. Per-op
// slices are indexed by position in the block body.
type scratch struct {
	numVRegs int // the program's virtual register count

	lat, prio, issue []int
	// The block's dependence graph in compressed sparse row form: the
	// edges into op i are preds[predOff[i]:predOff[i+1]], the edges out
	// of it succs[succOff[i]:succOff[i+1]]. cursor fills succs.
	predOff, succOff, cursor []int
	preds, succs             []dep
	// waiting[i] counts i's unscheduled predecessor edges; earliest[i]
	// is the first cycle its scheduled predecessors allow. A released op
	// waits in the chain of its release cycle: pending[cycle] heads a
	// chain linked through next (-1 ends a chain).
	waiting, earliest, next, pending []int
	// wb[k] counts register results committing in cycle k.
	wb                   []int
	ready, fresh, merged []int

	// buildDeps state, indexed by virtual register. lastDef[v] is the
	// latest op defining v (-1: none in this block); the reads of v
	// since then form a chain in uses from useHead[v] to useTail[v].
	lastDef, useHead, useTail []int
	uses                      []use
	loads, stores             []int
}

// fill returns s resized to n elements, all set to v, reusing its
// storage when it is large enough.
func fill(s []int, n, v int) []int {
	if cap(s) < n {
		s = make([]int, n)
	}
	s = s[:n]
	for i := range s {
		s[i] = v
	}
	return s
}

// scheduleBlock list-schedules one block body cycle by cycle, appending
// its instructions to c, then places the block's jump and pads the block
// for the drain rule.
//
// Each cycle issues from a ready list ordered by priority (longest
// latency-weighted path to a sink) descending, then program index
// ascending; an op that does not fit (slots, load issue, writeback
// ports) stays on the list for the next cycle. Every op keeps a count
// of unscheduled predecessors and its earliest issue cycle, and issuing
// an op updates only its successors, so the cost is linear in ops and
// dependences plus the ready-list walks. The output equals that of a
// scan over every unscheduled op at the start of every cycle because of
// one rule: an op released by an issue in cycle c joins the ready list
// at the start of cycle max(c+1, earliest issue) — never in cycle c
// itself, even on a weight-0 (WAR) edge.
func (s *scratch) scheduleBlock(c *Code, b *prog.Block, t *config.Target) error {
	body := b.Body()
	jump := b.Jump()

	for i := range body {
		if !t.Supports(body[i].Opcode) {
			return fmt.Errorf("operation %s not implemented by target %s",
				body[i].Info().Name, t.Name)
		}
	}

	n := len(body)
	s.lat = fill(s.lat, n, 0)
	for i := range body {
		s.lat[i] = t.OpLatency(body[i].Opcode)
	}
	s.buildDeps(body)
	lat, preds, predOff := s.lat, s.preds, s.predOff

	// Successor lists by counting sort over the predecessor edges, in
	// the order the edges were found.
	succOff := fill(s.succOff, n+1, 0)
	for _, d := range preds {
		succOff[d.op+1]++
	}
	for i := 0; i < n; i++ {
		succOff[i+1] += succOff[i]
	}
	succs := slices.Grow(s.succs[:0], len(preds))[:len(preds)]
	cursor := append(s.cursor[:0], succOff[:n]...)
	for i := 0; i < n; i++ {
		for _, d := range preds[predOff[i]:predOff[i+1]] {
			succs[cursor[d.op]] = dep{op: int32(i), weight: d.weight}
			cursor[d.op]++
		}
	}
	s.succOff, s.succs, s.cursor = succOff, succs, cursor

	// Priority: longest path to any sink, including own latency.
	prio := fill(s.prio, n, 0)
	for i := n - 1; i >= 0; i-- {
		prio[i] = lat[i]
		for _, d := range succs[succOff[i]:succOff[i+1]] {
			if v := int(d.weight) + prio[d.op]; v > prio[i] {
				prio[i] = v
			}
		}
	}
	s.prio = prio

	issue := fill(s.issue, n, -1)
	waiting := fill(s.waiting, n, 0)
	earliest := fill(s.earliest, n, 0)
	next := fill(s.next, n, -1)
	pending := s.pending[:0]
	release := func(i, cycle int) {
		for len(pending) <= cycle {
			pending = append(pending, -1)
		}
		next[i] = pending[cycle]
		pending[cycle] = i
	}
	for i := 0; i < n; i++ {
		if waiting[i] = predOff[i+1] - predOff[i]; waiting[i] == 0 {
			release(i, 0)
		}
	}

	// The block's instructions are c.Instrs[base:].
	base := len(c.Instrs)
	ensure := func(size int) {
		for len(c.Instrs) < base+size {
			c.Instrs = append(c.Instrs, Instr{})
		}
	}

	// wb counts register results committing per cycle: the register file
	// has WBPorts write ports, so an op whose results would land on a
	// full cycle must issue later. Results of different latencies issued
	// on different cycles can collide on the same commit cycle, which the
	// slot constraints alone do not prevent. (The block drain rule keeps
	// every commit inside the block, so per-block accounting is exact.)
	wb := s.wb[:0]

	ready, fresh, merged := s.ready[:0], s.fresh[:0], s.merged[:0]
	remaining := n
	for cycle := 0; remaining > 0; cycle++ {
		if cycle > 64*n+1024 {
			return fmt.Errorf("scheduler did not converge")
		}
		ensure(cycle + 1)
		if cycle < len(pending) && pending[cycle] >= 0 {
			fresh = fresh[:0]
			for i := pending[cycle]; i >= 0; i = next[i] {
				fresh = append(fresh, i)
			}
			sortByPriority(fresh, prio)
			merged = mergeByPriority(merged[:0], ready, fresh, prio)
			ready, merged = merged, ready
		}
		kept := ready[:0]
		for _, i := range ready {
			nd := body[i].Info().NDest
			commit := cycle + lat[i]
			for len(wb) <= commit {
				wb = append(wb, 0)
			}
			if (nd > 0 && wb[commit]+nd > WBPorts) || !place(&c.Instrs[base+cycle], &body[i], t) {
				kept = append(kept, i)
				continue
			}
			issue[i] = cycle
			remaining--
			wb[commit] += nd
			for _, d := range succs[succOff[i]:succOff[i+1]] {
				if e := cycle + int(d.weight); e > earliest[d.op] {
					earliest[d.op] = e
				}
				if waiting[d.op]--; waiting[d.op] == 0 {
					release(int(d.op), max(cycle+1, earliest[d.op]))
				}
			}
		}
		ready = kept
	}
	s.issue, s.waiting, s.earliest, s.next, s.pending, s.wb = issue, waiting, earliest, next, pending, wb
	s.ready, s.fresh, s.merged = ready, fresh, merged

	// Drain: every result must be committed by the end of the block so
	// that successor blocks (on either path) observe it. The exposed
	// pipeline has no interlocks; this is the compiler's contract.
	drain := 0
	lastIssue := -1
	for i := range body {
		if e := issue[i] + lat[i]; e > drain {
			drain = e
		}
		if issue[i] > lastIssue {
			lastIssue = issue[i]
		}
	}

	blockLen := len(c.Instrs) - base
	if blockLen < drain {
		blockLen = drain
	}

	if jump != nil {
		if !t.Supports(jump.Opcode) {
			return fmt.Errorf("jump op %s unsupported", jump.Info().Name)
		}
		d := t.JumpDelaySlots
		// Guard readiness (RAW on the guard register).
		guardReady := 0
		for i := range body {
			info := body[i].Info()
			for k := 0; k < info.NDest; k++ {
				if body[i].Dest[k] == jump.Guard {
					if e := issue[i] + lat[i]; e > guardReady {
						guardReady = e
					}
				}
			}
		}
		jc := guardReady
		if v := lastIssue - d; v > jc {
			jc = v
		}
		if v := drain - d - 1; v > jc {
			jc = v
		}
		// Find a free branch-unit slot (2, 3 or 4) at or after jc.
		for {
			ensure(jc + 1)
			in := &c.Instrs[base+jc]
			if s := freeSlot(in, isa.DefaultSlots(isa.UnitBranch)); s >= 0 {
				in.Slots[s] = SlotOp{Op: jump}
				break
			}
			jc++
		}
		// The block ends exactly one instruction after the last delay
		// slot; jc was chosen so that this covers both the drain
		// requirement and every scheduled operation.
		blockLen = jc + d + 1
	}

	ensure(blockLen)
	c.Instrs = c.Instrs[:base+blockLen]
	c.SrcOps += len(b.Ops)
	return nil
}

// buildDeps constructs the dependence edges of a block body from the
// ops' latencies in s.lat. Every edge points from an earlier op to a
// later one, and the edges into op i are found while visiting i, so
// they are stored in compressed sparse row form: s.preds[s.predOff[i]:
// s.predOff[i+1]], each naming its predecessor.
func (s *scratch) buildDeps(body []prog.Op) {
	lat := s.lat
	lastDef := fill(s.lastDef, s.numVRegs, -1)
	useHead := fill(s.useHead, s.numVRegs, -1)
	useTail := fill(s.useTail, s.numVRegs, -1)
	uses := s.uses[:0]
	addUse := func(v prog.VReg, i int) {
		uses = append(uses, use{op: int32(i), next: -1})
		if useTail[v] >= 0 {
			uses[useTail[v]].next = int32(len(uses) - 1)
		} else {
			useHead[v] = len(uses) - 1
		}
		useTail[v] = len(uses) - 1
	}
	loads, stores := s.loads[:0], s.stores[:0]

	predOff := fill(s.predOff, len(body)+1, 0)
	preds := s.preds[:0]
	add := func(i, pred, weight int) {
		if i == pred {
			return // self-edges (rejected by Validate) must never deadlock
		}
		preds = append(preds, dep{op: int32(pred), weight: int32(weight)})
	}

	for i := range body {
		op := &body[i]
		info := op.Info()

		var reads [5]prog.VReg
		reads[0] = op.Guard
		copy(reads[1:], op.Src[:info.NSrc])
		for _, r := range reads[:1+info.NSrc] {
			if r.Pinned() {
				continue
			}
			if d := lastDef[r]; d >= 0 {
				add(i, d, lat[d]) // RAW
			}
			addUse(r, i)
		}
		for k := 0; k < info.NDest; k++ {
			d := op.Dest[k]
			if pd := lastDef[d]; pd >= 0 {
				w := lat[pd] - lat[i] + 1 // WAW: later def must commit later
				if w < 1 {
					w = 1
				}
				add(i, pd, w)
			}
			for u := useHead[d]; u >= 0; u = int(uses[u].next) {
				if reader := int(uses[u].op); reader != i {
					add(i, reader, 0) // WAR: read at issue, write commits later
				}
			}
			// A guarded definition merges with the previous value, so it
			// also counts as a use for subsequent writers.
			lastDef[d] = i
			useHead[d], useTail[d] = -1, -1
			if op.Guard != prog.One {
				addUse(d, i)
			}
		}

		switch {
		case info.IsLoad:
			for _, st := range stores {
				if mayAlias(op, &body[st]) {
					add(i, st, 1) // memory RAW
				}
			}
			loads = append(loads, i)
		case info.IsStore:
			for _, l := range loads {
				if mayAlias(op, &body[l]) {
					add(i, l, 0) // memory WAR
				}
			}
			for _, st := range stores {
				if mayAlias(op, &body[st]) {
					add(i, st, 1) // memory WAW
				}
			}
			stores = append(stores, i)
		}
		predOff[i+1] = len(preds)
	}
	s.lastDef, s.useHead, s.useTail, s.uses = lastDef, useHead, useTail, uses
	s.loads, s.stores, s.predOff, s.preds = loads, stores, predOff, preds
}

// mayAlias reports whether two memory operations may touch overlapping
// bytes. Operations in different non-zero MemGroups never alias; with
// the same base register and displacement addressing, disjoint static
// ranges never alias.
func mayAlias(a, b *prog.Op) bool {
	if a.MemGroup != 0 && b.MemGroup != 0 && a.MemGroup != b.MemGroup {
		return false
	}
	ai, bi := a.Info(), b.Info()
	// Displacement forms with a common base register.
	if ai.HasImm && bi.HasImm && a.Src[0] == b.Src[0] {
		alo, ahi := int64(int32(a.Imm)), int64(int32(a.Imm))+int64(ai.MemBytes)
		blo, bhi := int64(int32(b.Imm)), int64(int32(b.Imm))+int64(bi.MemBytes)
		return alo < bhi && blo < ahi
	}
	return true
}

// place tries to put op into the instruction, returning success.
func place(in *Instr, op *prog.Op, t *config.Target) bool {
	info := op.Info()
	if op.Opcode == isa.OpNOP {
		return true // NOPs occupy no slot
	}
	mask := slotsFor(op, t)
	if info.TwoSlot {
		for s := 1; s <= 4; s++ {
			if mask.Has(s) && in.Slots[s-1].Op == nil && in.Slots[s].Op == nil {
				in.Slots[s-1] = SlotOp{Op: op}
				in.Slots[s] = SlotOp{Op: op, Second: true}
				return true
			}
		}
		return false
	}
	if info.IsLoad && countLoads(in) >= t.MaxLoadsPerInstr {
		return false
	}
	if s := freeSlot(in, mask); s >= 0 {
		in.Slots[s] = SlotOp{Op: op}
		return true
	}
	return false
}

func countLoads(in *Instr) int {
	n := 0
	for _, s := range in.Slots {
		if s.Op != nil && !s.Second && s.Op.Info().IsLoad {
			n++
		}
	}
	return n
}

// freeSlot returns the zero-based index of the first free slot in the
// mask, or -1.
func freeSlot(in *Instr, mask isa.SlotMask) int {
	for s := 1; s <= 5; s++ {
		if mask.Has(s) && in.Slots[s-1].Op == nil {
			return s - 1
		}
	}
	return -1
}

// sortByPriority orders ops by priority descending, then program
// index ascending. This is a total order, so the result does not depend
// on the sort algorithm; a block's newly released ops can number in the
// thousands, so it is not an insertion sort.
func sortByPriority(idx []int, prio []int) {
	slices.SortFunc(idx, func(a, b int) int { return byPriority(a, b, prio) })
}

// byPriority compares two ops in ready-list order.
func byPriority(a, b int, prio []int) int {
	if prio[a] != prio[b] {
		return prio[b] - prio[a]
	}
	return a - b
}

// mergeByPriority appends to dst the merge of two lists already in
// ready-list order, and returns it.
func mergeByPriority(dst, x, y []int, prio []int) []int {
	for len(x) > 0 && len(y) > 0 {
		if byPriority(x[0], y[0], prio) < 0 {
			dst, x = append(dst, x[0]), x[1:]
		} else {
			dst, y = append(dst, y[0]), y[1:]
		}
	}
	dst = append(dst, x...)
	return append(dst, y...)
}
