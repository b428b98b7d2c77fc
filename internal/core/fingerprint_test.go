package core_test

import (
	"testing"

	"repligc/internal/core"
	"repligc/internal/gctest"
)

// TestDriverFingerprintPinned pins the semantic heap fingerprint of a
// seeded torture run, and the simulated time the walk charges, to values
// taken before the walker moved into core. Any change to the digest's
// encoding (mix order, byte reads, id assignment) or to its getheader
// charging fails here.
func TestDriverFingerprintPinned(t *testing.T) {
	m, gc := newRun(tortureConfig(true, true), core.LogAllMutations)
	d := gctest.NewDriver(m, 42)
	if err := d.Step(20000); err != nil {
		t.Fatal(err)
	}
	gc.FinishCycles(m)
	before := m.Clock.Now()
	fp := d.Fingerprint()
	charged := m.Clock.Now() - before
	const wantFP, wantCharged = 0x805258391c79f26, 151080
	if fp != wantFP || int64(charged) != wantCharged {
		t.Fatalf("fingerprint %#x charging %d, want %#x charging %d", fp, int64(charged), uint64(wantFP), wantCharged)
	}
}
