package faults

import (
	"sync"
	"testing"

	"tm3270/internal/config"
	"tm3270/internal/refmodel"
	"tm3270/internal/workloads"
)

// TestNewRefConcurrent builds reference machines for one target from
// concurrent goroutines, as the mutant matrix's workers do. At Full
// scale memcpy's initial image spans many pages, so any shared mutable
// state in the image read path (such as a page cache) is a data race
// that go test -race reports.
func TestNewRefConcurrent(t *testing.T) {
	p, d := workloads.Full(), config.ConfigD()
	cfg := &MatrixConfig{Workloads: []string{"memcpy"}, Params: &p, Target: &d}
	cfg.fill()
	mt, err := newMutTarget("memcpy", cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := mt.newRef(mt.baseline, cfg.Target, 1)
	pages := want.Mem.PageAddrs()
	if len(pages) < 2 {
		t.Fatalf("initial image spans %d pages, want several", len(pages))
	}
	const workers = 4
	got := make([]*refmodel.Machine, workers)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = mt.newRef(mt.baseline, cfg.Target, 1)
		}()
	}
	wg.Wait()
	for i, ref := range got {
		if ref.Regs() != want.Regs() {
			t.Errorf("worker %d: entry registers differ", i)
		}
		for _, pa := range pages {
			if string(ref.Mem.ReadBytes(pa, 1<<12)) != string(want.Mem.ReadBytes(pa, 1<<12)) {
				t.Errorf("worker %d: page %#x differs", i, pa)
			}
		}
	}
}
