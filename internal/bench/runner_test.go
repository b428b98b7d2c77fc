package bench

import (
	"runtime"
	"testing"

	"repligc/internal/heap"
)

// TestHeapNewHostMemory pins the host cost of the paper runtime's heap: the
// arena plus a one-bit-per-word dirty bitmap, and nothing per word beyond
// that. A per-word side table would add at least arena/8 bytes and fail.
func TestHeapNewHostMemory(t *testing.T) {
	cfg := RunConfig{Config: CfgRT, Params: PaperParams()[0]}.heapConfig()
	arena := uint64(cfg.NurseryCapBytes + 2*cfg.OldSemiBytes)
	limit := arena + arena/64 + 1<<20

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h := heap.New(cfg)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(h)
	if got := after.TotalAlloc - before.TotalAlloc; got > limit {
		t.Fatalf("heap.New allocated %d bytes for a %d-byte arena, want at most %d", got, arena, limit)
	}
}
