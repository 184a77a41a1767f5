package runner_test

import (
	"context"
	"strings"
	"testing"

	"tm3270/internal/config"
	"tm3270/internal/faults"
	"tm3270/internal/mem"
	"tm3270/internal/runner"
)

// TestInjectedRunChecksRealImage: an injector armed through
// WithMachineSetup taps the machine's loads, not the output check's.
// The check must judge the image the run actually left behind, and
// the injector must count only the faults it injected into execution.
// The seeds are ones where a check read through the armed load tap
// fails a correct image (loadflip:0.002) or misreports its sum
// (loadflip:1).
func TestInjectedRunChecksRealImage(t *testing.T) {
	tgt := config.TM3270()
	art, err := runner.CompileWorkload(spec(t, "blockwalk_pf"), tgt)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		inject string
		seed   int64
	}{{"loadflip:0.002", 620}, {"loadflip:0.002", 900}, {"loadflip:1", 1}} {
		sp, err := faults.ParseSpec(c.inject)
		if err != nil {
			t.Fatal(err)
		}

		// Reference: execute without the output check, then judge the
		// resulting image with the injector unplugged.
		w := spec(t, "blockwalk_pf")
		image := mem.NewFunc()
		if err := w.Init(image); err != nil {
			t.Fatal(err)
		}
		ref := faults.New(sp, c.seed)
		ld := runner.Load(art, image, runner.WithMachineSetup(ref.Arm))
		for v, val := range w.Args {
			ld.Machine.SetReg(v, val)
		}
		if err := ld.RunContext(context.Background()); err != nil {
			t.Fatalf("%s seed %d: %v", c.inject, c.seed, err)
		}
		ref.Disarm(ld.Machine)
		want := w.Check(image)

		inj := faults.New(sp, c.seed)
		_, err = runner.RunContext(context.Background(), spec(t, "blockwalk_pf"), tgt,
			runner.WithArtifact(art), runner.WithMachineSetup(inj.Arm))
		switch {
		case want == nil && err != nil:
			t.Errorf("%s seed %d: correct image failed its check: %v", c.inject, c.seed, err)
		case want != nil && (err == nil || !strings.HasSuffix(err.Error(), want.Error())):
			t.Errorf("%s seed %d: check error %v, want one ending in %q", c.inject, c.seed, err, want)
		}
		if got, exec := len(inj.Events), len(ref.Events); got != exec {
			t.Errorf("%s seed %d: injector counted %d events, execution injected %d",
				c.inject, c.seed, got, exec)
		}
	}
}
