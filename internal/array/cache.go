package array

import (
	"container/list"

	"triplea/internal/simx"
	"triplea/internal/units"
)

// dramCache is the large DRAM the paper relocates from the SSDs'
// on-board buffers to the autonomic management module (Section 6.6).
// It is a host-side LRU page cache: read hits are served from DRAM
// without touching the flash array network, and writes install their
// data on the way down.
//
// Section 6.6's point — which the DRAM study reproduces — is that this
// cache does NOT resolve link or storage contention: misses and
// buffer-bypassing traffic still share the same buses and FIMMs.
type dramCache struct {
	capacity units.Pages // <= 0 disables the cache
	lru      *list.List
	index    map[int64]*list.Element

	hits   uint64
	misses uint64
}

// CacheStats reports host DRAM cache activity.
type CacheStats struct {
	CapacityPages units.Pages
	ResidentPages units.Pages
	Hits          uint64
	Misses        uint64
}

// HitRate reports the read hit fraction.
func (s CacheStats) HitRate() float64 {
	if s.Hits+s.Misses == 0 {
		return 0
	}
	return float64(s.Hits) / float64(s.Hits+s.Misses)
}

func newDRAMCache(capacityPages units.Pages) *dramCache {
	if capacityPages <= 0 {
		return &dramCache{}
	}
	return &dramCache{
		capacity: capacityPages,
		lru:      list.New(),
		index:    make(map[int64]*list.Element),
	}
}

func (c *dramCache) enabled() bool { return c.capacity > 0 }

// lookup reports whether the page is cached, refreshing its recency.
func (c *dramCache) lookup(lpn int64) bool {
	if !c.enabled() {
		return false
	}
	el, ok := c.index[lpn]
	if !ok {
		c.misses++
		return false
	}
	c.lru.MoveToFront(el)
	c.hits++
	return true
}

// install caches a page (after a read miss completes or on a write).
func (c *dramCache) install(lpn int64) {
	if !c.enabled() {
		return
	}
	if el, ok := c.index[lpn]; ok {
		c.lru.MoveToFront(el)
		return
	}
	if units.Pages(c.lru.Len()) >= c.capacity {
		oldest := c.lru.Back()
		c.lru.Remove(oldest)
		delete(c.index, oldest.Value.(int64))
	}
	c.index[lpn] = c.lru.PushFront(lpn)
}

func (c *dramCache) stats() CacheStats {
	s := CacheStats{CapacityPages: c.capacity, Hits: c.hits, Misses: c.misses}
	if c.lru != nil {
		s.ResidentPages = units.Pages(c.lru.Len())
	}
	return s
}

// hostDRAMHitLatency is the host-side service time of a cache hit:
// a DRAM copy plus management-module software, no fabric involvement.
const hostDRAMHitLatency = 2 * simx.Microsecond
