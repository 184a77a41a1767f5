package binverify

import (
	"math/bits"

	"tm3270/internal/isa"
	"tm3270/internal/sched"
)

// regSet is a set of register numbers, or of positions in the range
// analysis' register domain (never more than isa.NumRegs), one bit each.
type regSet [isa.NumRegs / 64]uint64

func (s *regSet) add(r isa.Reg)      { s[r/64] |= 1 << (r % 64) }
func (s *regSet) del(r isa.Reg)      { s[r/64] &^= 1 << (r % 64) }
func (s *regSet) has(r isa.Reg) bool { return s[r/64]&(1<<(r%64)) != 0 }

// intersect ands o into s, reporting whether s changed.
func (s *regSet) intersect(o *regSet) bool {
	changed := false
	for w := range s {
		if n := s[w] & o[w]; n != s[w] {
			s[w] = n
			changed = true
		}
	}
	return changed
}

// each calls f for every member in ascending order. f may remove
// members; the walk covers the members present when it started.
func (s *regSet) each(f func(r isa.Reg)) {
	for w, word := range *s {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			word &^= 1 << b
			f(isa.Reg(w*64 + b))
		}
	}
}

// worklist is the fixpoints' FIFO of node indices, each queued at most
// once: a ring over n slots, so no visit allocates.
type worklist struct {
	buf     []int
	head, n int
	queued  []bool
}

func newWorklist(n int) *worklist {
	return &worklist{buf: make([]int, n), queued: make([]bool, n)}
}

func (w *worklist) empty() bool { return w.n == 0 }

// push queues node i unless it is already queued.
func (w *worklist) push(i int) {
	if w.queued[i] {
		return
	}
	w.queued[i] = true
	w.buf[(w.head+w.n)%len(w.buf)] = i
	w.n++
}

func (w *worklist) pop() int {
	i := w.buf[w.head]
	w.head = (w.head + 1) % len(w.buf)
	w.n--
	w.queued[i] = false
	return i
}

// The latency analysis tracks, per register, how many instructions
// remain until an in-flight write commits. The pipeline commits a write
// of latency L issued at index j before the instruction at index j+L
// executes, so at the entry of node j+k the register has L-k
// instructions pending; any read while pend > 0 observes the stale
// value. The analysis is a forward may-analysis: the join over
// predecessors takes the per-register maximum, so a hazard on any
// incoming path is reported. The definedness analysis is the dual
// must-analysis (join = intersection): a register is defined only if
// every path to the node wrote it unconditionally.
type dfState struct {
	pend [isa.NumRegs]int32 // instructions until the in-flight write commits
	def  regSet             // defined registers; tracked only when v.uninitOn
}

// mergeFrom joins o into s, reporting whether s changed. The defined
// sets intersect only when the uninit analysis is on.
func (s *dfState) mergeFrom(o *dfState, uninit bool) bool {
	changed := false
	for r, p := range &o.pend {
		if p > s.pend[r] {
			s.pend[r] = p
			changed = true
		}
	}
	if uninit && s.def.intersect(&o.def) {
		changed = true
	}
	return changed
}

// neverExec reports whether the operation's hardwired guard statically
// disables it (r0 reads 0, r1 reads 1; the guard check is on the low
// bit). Such an operation is dead: it neither reads nor writes.
func neverExec(op *vop) bool {
	if op.info.GuardInverted {
		return op.guard == isa.R1
	}
	return op.guard == isa.R0
}

// transfer computes the state at the next node's entry from the state
// at node i's entry into out, emitting diagnostics when report is set.
// Reads observe the entry state (operands are gathered before any write
// of the same instruction commits).
func (v *verifier) transfer(i int, in, out *dfState, report bool) {
	if report {
		for k := range v.ops[i] {
			op := &v.ops[i][k]
			if neverExec(op) {
				continue
			}
			for j := -1; j < len(op.srcs); j++ {
				r := op.guard
				if j >= 0 {
					r = op.srcs[j]
				}
				if r.Hardwired() {
					continue
				}
				if p := in.pend[r]; p > 0 {
					v.diag(i, op.slot, op.mn(), CheckLatency, Error,
						"reads %s %d instruction(s) before its in-flight write commits", r, p)
				}
				if v.uninitOn && !in.def.has(r) {
					v.diag(i, op.slot, op.mn(), CheckUninit, Warn,
						"reads %s, which may be uninitialized on some path to this instruction", r)
				}
			}
		}
	}

	*out = *in
	for r, p := range &out.pend {
		if p > 0 {
			out.pend[r] = p - 1
		}
	}
	for k := range v.ops[i] {
		op := &v.ops[i][k]
		if neverExec(op) {
			continue
		}
		lat := int32(v.t.OpLatency(op.oc))
		for _, d := range op.dests {
			if d.Hardwired() {
				continue
			}
			// The earlier write commits at i+pend, this one at i+lat: the
			// earlier one landing at the same cycle or later inverts the
			// write order the schedule promised.
			if report && in.pend[d] >= lat {
				v.diag(i, op.slot, op.mn(), CheckWAW, Error,
					"writes %s while an earlier write is still in flight and commits no earlier (WAW order violation)", d)
			}
			out.pend[d] = max(lat-1, 0)
			// A guarded (if-converted) write still defines the register for
			// the may-uninit analysis: flagging it would drown real
			// never-written-on-some-path reads in false positives.
			if v.uninitOn {
				out.def.add(d)
			}
		}
	}
}

// dataflow runs the worklist fixpoint over the CFG, then a final
// deterministic reporting pass in instruction order. Node states live
// in one slab; a node's state is first written when the node is
// reached, and one scratch state carries every transfer's result.
func (v *verifier) dataflow() {
	n := len(v.dec)
	states := make([]dfState, n)
	reached := make([]bool, n)
	reached[0] = true
	if v.uninitOn {
		states[0].def = v.entryDefined
		states[0].def.add(isa.R0)
		states[0].def.add(isa.R1)
	}

	var out dfState
	work := newWorklist(n)
	work.push(0)
	for !work.empty() {
		i := work.pop()
		v.transfer(i, &states[i], &out, false)
		for _, s := range v.succ[i] {
			if s >= n {
				continue // exit
			}
			changed := true
			if reached[s] {
				changed = states[s].mergeFrom(&out, v.uninitOn)
			} else {
				states[s] = out
				reached[s] = true
			}
			if changed {
				work.push(s)
			}
		}
	}

	for i := 0; i < n; i++ {
		if reached[i] {
			v.transfer(i, &states[i], &out, true)
		}
	}
}

// checkWritePorts counts, per straight-line issue cycle, how many
// register results commit together, and flags cycles that need more
// write ports than the register file has (sched.WBPorts). It also flags
// two operations of one instruction writing the same register — an
// intra-instruction WAW the dataflow (which tracks one pending write
// per register) would mask.
func (v *verifier) checkWritePorts() {
	n := len(v.dec)
	counts := make([]int, n+1) // register commits per cycle, grown to the latest
	for i := 0; i < n; i++ {
		// dest -> slot of the first writer, for this instruction's <= 10 dests
		var seen [10]struct {
			r    isa.Reg
			slot int
		}
		nseen := 0
		for k := range v.ops[i] {
			op := &v.ops[i][k]
			if neverExec(op) {
				continue
			}
			c := i + v.t.OpLatency(op.oc)
			if c >= len(counts) {
				counts = append(counts, make([]int, c+1-len(counts))...)
			}
			for _, d := range op.dests {
				if d.Hardwired() {
					continue
				}
				first := 0
				for _, e := range seen[:nseen] {
					if e.r == d {
						first = e.slot
						break
					}
				}
				if first > 0 {
					v.diag(i, op.slot, op.mn(), CheckWAW, Error,
						"writes %s already written by the operation in slot %d of the same instruction", d, first)
				} else {
					seen[nseen].r, seen[nseen].slot = d, op.slot
					nseen++
				}
				counts[c]++
			}
		}
	}
	for c := 1; c < len(counts); c++ {
		if counts[c] <= sched.WBPorts {
			continue
		}
		anchor := c
		if anchor >= n {
			anchor = n - 1
		}
		v.diag(anchor, 0, "", CheckWBPorts, Error,
			"%d register writebacks commit in the same cycle; the register file has %d write ports",
			counts[c], sched.WBPorts)
	}
}
