package binverify

import (
	"testing"

	"tm3270/internal/config"
	"tm3270/internal/encode"
	"tm3270/internal/workloads"
)

// verifyBenchWorkloads spans the verifier's cost range on target D: a
// short kernel (upconv), a mid-size one (mp3_synth) and the two largest
// images (mpeg2_a, me_ref).
var verifyBenchWorkloads = []string{"upconv", "mp3_synth", "mpeg2_a", "me_ref"}

// benchInput compiles a Small-scale workload for target D and returns
// its decoded image and full semantic verification options.
func benchInput(tb testing.TB, name string) ([]encode.DecInstr, *config.Target, *Options) {
	tb.Helper()
	w, err := workloads.ByName(name, workloads.Small())
	if err != nil {
		tb.Fatal(err)
	}
	tgt := config.ConfigD()
	dec, opts, err := compileWorkload(tb, w, tgt)
	if err != nil {
		tb.Fatalf("%s: %v", name, err)
	}
	return dec, &tgt, opts
}

// verifySink keeps the benchmarked reports live.
var verifySink *Report

// BenchmarkVerify times one whole-program verification, semantic layer
// included, of each benchmark workload.
func BenchmarkVerify(b *testing.B) {
	for _, name := range verifyBenchWorkloads {
		dec, tgt, opts := benchInput(b, name)
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				verifySink = Verify(dec, tgt, opts)
			}
		})
	}
}

// TestVerifyAllocs caps the heap objects one mpeg2_a verification
// allocates. The fixpoints keep register-indexed states and reuse their
// working state across visits; per-register maps cloned on every visit
// would cost several hundred thousand allocations here.
func TestVerifyAllocs(t *testing.T) {
	const ceiling = 150_000
	dec, tgt, opts := benchInput(t, "mpeg2_a")
	allocs := testing.AllocsPerRun(1, func() { Verify(dec, tgt, opts) })
	t.Logf("mpeg2_a verify: %.0f allocs", allocs)
	if allocs >= ceiling {
		t.Errorf("mpeg2_a verify allocates %.0f objects, ceiling %d", allocs, ceiling)
	}
}
