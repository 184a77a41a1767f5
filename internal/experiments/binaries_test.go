package experiments_test

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"tm3270/internal/config"
	"tm3270/internal/progen"
	"tm3270/internal/runner"
	"tm3270/internal/workloads"
)

var update = flag.Bool("update", false, "rewrite the testdata/*.golden fingerprints")

// goldenTarget is a compile target under its short golden-file label.
type goldenTarget struct {
	label string
	t     config.Target
}

func goldenTargets(withTM3270 bool) []goldenTarget {
	ts := []goldenTarget{
		{"A", config.ConfigA()}, {"B", config.ConfigB()},
		{"C", config.ConfigC()}, {"D", config.ConfigD()},
	}
	if withTM3270 {
		ts = append(ts, goldenTarget{"TM3270", config.TM3270()})
	}
	return ts
}

// goldenGenSeeds and goldenGenOps match the generated half of the
// default cosim campaign's shape (64-op programs on A–D).
const (
	goldenGenSeeds = 2000
	goldenGenOps   = 64
)

// binariesFingerprint compiles every pinned program through
// runner.Compile and returns one line per pair, keyed by the text
// before the colon:
//
//	wl <scale> <workload> <target>: sha256=<hex> instrs=<n> pad=<n>
//	wl <scale> <workload> <target>: error=<compile error text>
//	gen <seed> <target>: <first 16 hex digits of the image's sha256>
func binariesFingerprint(t *testing.T) []string {
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
				if err != nil {
					var se *runner.ScheduleError
					if !errors.As(err, &se) {
						t.Errorf("%s: non-scheduling compile failure: %v", key, err)
					}
					lines = append(lines, fmt.Sprintf("%s: error=%s", key, err))
					continue
				}
				sum := sha256.Sum256(a.Enc.Bytes)
				lines = append(lines, fmt.Sprintf("%s: sha256=%x instrs=%d pad=%d",
					key, sum, len(a.Code.Instrs), a.Code.PadInstrs))
			}
		}
	}
	for seed := int64(1); seed <= goldenGenSeeds; seed++ {
		for _, gt := range goldenTargets(false) {
			p := progen.Generate(progen.Config{Seed: seed, Target: &gt.t, Ops: goldenGenOps})
			a, err := runner.Compile(p, gt.t)
			if err != nil {
				t.Fatalf("gen %d %s: %v", seed, gt.label, err)
			}
			sum := sha256.Sum256(a.Enc.Bytes)
			lines = append(lines, fmt.Sprintf("gen %d %s: %s", seed, gt.label, hex.EncodeToString(sum[:8])))
		}
	}
	return lines
}

// splitGolden parses fingerprint lines into key -> field -> value. A
// gen line holding a single bare value stores it under the field
// "sha256".
func splitGolden(lines []string) (map[string]map[string]string, []string) {
	m := make(map[string]map[string]string, len(lines))
	var order []string
	for _, l := range lines {
		key, rest, ok := strings.Cut(l, ": ")
		if !ok {
			continue
		}
		fields := map[string]string{}
		switch {
		case strings.HasPrefix(rest, "error="):
			fields["error"] = strings.TrimPrefix(rest, "error=")
		case strings.HasPrefix(key, "gen ") && !strings.Contains(rest, "="):
			fields["sha256"] = rest
		default:
			for _, f := range strings.Fields(rest) {
				k, v, _ := strings.Cut(f, "=")
				fields[k] = v
			}
		}
		m[key] = fields
		order = append(order, key)
	}
	return m, order
}

// TestBinariesGolden pins the compiler's output: the encoded image of
// every workload on every target at both scales, and of the first 2000
// generated programs on A–D. The simulated cycles, stalls and final
// memory of a run are functions of the binary and its inputs, so this
// file also pins them. A scheduler, allocator or encoder refactor must
// reproduce it byte for byte; rerun with -update only for a deliberate
// change of compiler output, and name every moved pair in the change.
func TestBinariesGolden(t *testing.T) {
	checkGolden(t, "binaries.golden", binariesFingerprint(t),
		[]string{"sha256", "instrs", "pad", "error"}, "compiler output")
}

// checkGolden compares fingerprint lines against testdata/<file>
// (rewriting it first under -update) and names every pair and field
// that moved.
func checkGolden(t *testing.T, file string, got, fields []string, what string) {
	t.Helper()
	path := filepath.Join("testdata", file)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("%v (rerun with -update to regenerate)", err)
	}
	defer f.Close()
	var wantLines []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		wantLines = append(wantLines, sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}

	want, wantOrder := splitGolden(wantLines)
	have, haveOrder := splitGolden(got)
	const maxReports = 20
	reports := 0
	report := func(format string, args ...any) {
		if reports < maxReports {
			t.Errorf(format, args...)
		}
		reports++
	}
	for _, key := range wantOrder {
		h, ok := have[key]
		if !ok {
			report("%s: pinned pair no longer produced", key)
			continue
		}
		w := want[key]
		for _, field := range fields {
			if w[field] != h[field] {
				report("%s: %s moved: got %q, want %q", key, field, h[field], w[field])
			}
		}
	}
	for _, key := range haveOrder {
		if _, ok := want[key]; !ok {
			report("%s: pair missing from the golden file", key)
		}
	}
	if reports > maxReports {
		t.Errorf("... and %d more mismatches", reports-maxReports)
	}
	if reports > 0 {
		t.Errorf("%s changed (rerun with -update if deliberate)", what)
	}
}
