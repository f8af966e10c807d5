package blockdev

import (
	"testing"

	"repro/internal/sim"
)

// counter is the state a static completion carries in its arg slot.
type counter struct{ n int }

func count(a any) { a.(*counter).n++ }

// TestDeviceAccessAllocationFree locks the per-block device path: Read2
// and Write2 on the plain and persistent flash devices and on the RAM
// device allocate nothing, with a static completion or a nil fn.
func TestDeviceAccessAllocationFree(t *testing.T) {
	var e sim.Engine
	type device interface {
		Read2(fn func(any), arg any)
		Write2(fn func(any), arg any)
	}
	c := &counter{}
	for _, tc := range []struct {
		name string
		dev  device
	}{
		{"flash", newFlashDevice(&e, 88, 21, false)},
		{"persistent", newFlashDevice(&e, 88, 21, true)},
		{"ram", newRAMDevice(&e, 400, 300)},
	} {
		for i := 0; i < 64; i++ { // warm the engine's heap
			tc.dev.Read2(count, c)
		}
		e.Run()
		allocs := testing.AllocsPerRun(1000, func() {
			tc.dev.Read2(count, c)
			tc.dev.Write2(count, c)
			tc.dev.Read2(nil, nil)
			tc.dev.Write2(nil, nil)
			e.Run()
		})
		if allocs != 0 {
			t.Errorf("%s: Read2/Write2 allocated %v per run, want 0", tc.name, allocs)
		}
	}
	if c.n == 0 {
		t.Fatal("completions never ran")
	}
}
