package experiments_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"testing"

	"tm3270/internal/binverify"
	"tm3270/internal/isa"
	"tm3270/internal/progen"
	"tm3270/internal/runner"
	"tm3270/internal/workloads"
)

// analysisGenSeeds is the number of generated programs per target the
// analysis fingerprint verifies.
const analysisGenSeeds = 500

// reportHash is the sha256 of a rendered verifier report.
func reportHash(rep *binverify.Report) [32]byte {
	var buf bytes.Buffer
	rep.Write(&buf)
	return sha256.Sum256(buf.Bytes())
}

// analysisFingerprint runs the static verifier and the cycle bound over
// every pinned binary and returns one line per pair, keyed by the text
// before the colon:
//
//	wl <scale> <workload> <target>: diags=<n> report=<hex> bounded=<b> cycles=<n> loops=<bound@source,...>
//	gen <seed> <target>: diags=<n> report=<first 16 hex digits> cycles=<n>
//
// Workloads verify with their full semantic contract (VerifyOptions);
// generated programs with an empty entry-value set, which turns on the
// range analysis and loop-bound inference without seeding any register.
// Pairs whose schedule does not fit the target are left out, as the
// binaries fingerprint already pins their compile error.
func analysisFingerprint(t *testing.T) []string {
	var lines []string
	for _, scale := range []struct {
		name string
		p    workloads.Params
	}{{"small", workloads.Small()}, {"full", workloads.Full()}} {
		for _, name := range workloads.Names() {
			w, err := workloads.ByName(name, scale.p)
			if err != nil {
				t.Fatalf("%s %s: %v", scale.name, name, err)
			}
			for _, gt := range goldenTargets(true) {
				key := fmt.Sprintf("wl %s %s %s", scale.name, name, gt.label)
				a, err := runner.Compile(w.Prog, gt.t)
				var se *runner.ScheduleError
				if errors.As(err, &se) {
					continue
				}
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				opts := a.VerifyOptions(w)
				rep, _ := a.VerifyStatic(&gt.t, opts)
				if rep == nil {
					t.Fatalf("%s: image does not decode", key)
				}
				cb, err := a.CycleBound(&gt.t, opts)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				loops := make([]string, len(cb.Loops))
				for i, l := range cb.Loops {
					loops[i] = fmt.Sprintf("%d@%s", l.Bound, l.Source)
				}
				if len(loops) == 0 {
					loops = []string{"-"}
				}
				lines = append(lines, fmt.Sprintf("%s: diags=%d report=%x bounded=%t cycles=%d loops=%s",
					key, len(rep.Diags), reportHash(rep), cb.Bounded, cb.Cycles, strings.Join(loops, ",")))
			}
		}
	}
	for seed := int64(1); seed <= analysisGenSeeds; seed++ {
		for _, gt := range goldenTargets(false) {
			key := fmt.Sprintf("gen %d %s", seed, gt.label)
			p := progen.Generate(progen.Config{Seed: seed, Target: &gt.t, Ops: goldenGenOps})
			a, err := runner.Compile(p, gt.t)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			opts := &binverify.Options{EntryValues: map[isa.Reg]uint32{}}
			rep, _ := a.VerifyStatic(&gt.t, opts)
			if rep == nil {
				t.Fatalf("%s: image does not decode", key)
			}
			cb, err := a.CycleBound(&gt.t, opts)
			if err != nil {
				t.Fatalf("%s: %v", key, err)
			}
			h := reportHash(rep)
			lines = append(lines, fmt.Sprintf("%s: diags=%d report=%s cycles=%d",
				key, len(rep.Diags), hex.EncodeToString(h[:8]), cb.Cycles))
		}
	}
	return lines
}

// TestAnalysisGolden pins the static analyses' output: the rendered
// verifier report, the WCET bound and every inferred loop bound of each
// workload on every target at both scales, and the report and bound of
// the first 500 generated programs on A–D. TestCycleBoundCoversMeasured
// only checks that bounds stay sound, so a verifier refactor that
// loosened a bound or lost a loop inference would pass it; this file
// must instead stay byte-identical. Rerun with -update only for a
// deliberate change of the analyses, and name every moved pair.
func TestAnalysisGolden(t *testing.T) {
	checkGolden(t, "analysis.golden", analysisFingerprint(t),
		[]string{"diags", "report", "bounded", "cycles", "loops"}, "static analysis output")
}
