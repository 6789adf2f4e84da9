package serving

import (
	"container/list"
	"sync"
)

// ResponseCache is the Resp Cache component of Fig. 2: an LRU map from
// request key to response, answering frequent requests without evaluating
// the model (the Clipper-style caching optimisation; the paper's serving
// experiments run with it off, and so do ours).
type ResponseCache struct {
	mu       sync.Mutex
	capacity int
	ll       *list.List
	items    map[string]*list.Element

	hits, misses int64
}

type cacheEntry struct {
	key   string
	value interface{}
}

// NewResponseCache returns an LRU cache holding up to capacity entries.
func NewResponseCache(capacity int) *ResponseCache {
	if capacity < 1 {
		capacity = 1
	}
	return &ResponseCache{
		capacity: capacity,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
	}
}

// Get returns the cached response for key, marking it most-recently used.
func (c *ResponseCache) Get(key string) (interface{}, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		return el.Value.(*cacheEntry).value, true
	}
	c.misses++
	return nil, false
}

// Put stores a response, evicting the least-recently-used entry if full.
func (c *ResponseCache) Put(key string, value interface{}) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheEntry).value = value
		c.ll.MoveToFront(el)
		return
	}
	el := c.ll.PushFront(&cacheEntry{key: key, value: value})
	c.items[key] = el
	if c.ll.Len() > c.capacity {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.items, oldest.Value.(*cacheEntry).key)
	}
}

// Stats returns (hits, misses).
func (c *ResponseCache) Stats() (hits, misses int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses
}
