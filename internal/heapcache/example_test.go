package heapcache_test

import (
	"fmt"

	"waflfs/internal/heapcache"
)

// Example shows the RAID-aware AA cache: heapify all AA scores, serve the
// best to the write allocator, and fold the CP's batched score changes.
func Example() {
	// A tiny RAID group with four AAs, scored from the bitmap.
	c := heapcache.NewFromScores([]uint64{1200, 4096, 37, 2048})

	best, _ := c.PopBest()
	fmt.Printf("write to AA %d (%d free blocks)\n", best.ID, best.Score)

	// The allocator drained it; at the CP boundary it returns with its new
	// score while frees elsewhere arrive as batched score updates.
	c.Insert(best.ID, 0)
	c.Update(2, c.Score(2)+500)

	for _, e := range c.TopK(2) {
		fmt.Printf("AA %d: %d\n", e.ID, e.Score)
	}

	// Output:
	// write to AA 1 (4096 free blocks)
	// AA 3: 2048
	// AA 0: 1200
}
