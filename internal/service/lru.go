package service

import (
	"container/list"
	"sync"
	"sync/atomic"

	"autovalidate/internal/validate"
)

// ruleLRU is a fixed-capacity least-recently-used cache of inferred
// rules keyed by column fingerprint, safe for concurrent use. Each
// served snapshot owns one: a new index is published with a new, empty
// cache, since any changed pattern evidence can alter which pattern
// FMDV selects for an arbitrary column.
type ruleLRU struct {
	cap   int
	stats *cacheStats

	mu    sync.Mutex
	order *list.List // front = most recently used
	items map[string]*list.Element
}

// cacheStats counts cache behaviour over the server's lifetime, across
// every snapshot's cache; exposed on GET /stats and /metrics.
type cacheStats struct {
	hits      atomic.Uint64
	misses    atomic.Uint64
	evictions atomic.Uint64
}

type lruEntry struct {
	key  string
	rule *validate.Rule
}

func newRuleLRU(capacity int, stats *cacheStats) *ruleLRU {
	if capacity < 1 {
		capacity = 1
	}
	return &ruleLRU{
		cap:   capacity,
		stats: stats,
		order: list.New(),
		items: make(map[string]*list.Element, capacity),
	}
}

// get returns the cached rule and refreshes its recency.
func (c *ruleLRU) get(key string) (*validate.Rule, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.stats.misses.Add(1)
		return nil, false
	}
	c.stats.hits.Add(1)
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry).rule, true
}

// add inserts or refreshes a rule, evicting the least recently used
// entry when over capacity.
func (c *ruleLRU) add(key string, rule *validate.Rule) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry).rule = rule
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&lruEntry{key: key, rule: rule})
	if c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry).key)
		c.stats.evictions.Add(1)
	}
}

func (c *ruleLRU) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
