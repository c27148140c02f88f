package serve

import (
	"container/list"
	"sync"

	"repro/internal/sql"
)

// PlanCache is the server-side prepared-statement cache: one validated
// sql.Stmt per PlanKey, so repeated submissions of the same statement
// skip the parse-and-validate pass and the daemon's hot path is Bind +
// Exec.
//
// Staleness is impossible by construction rather than by discipline:
// every entry records the engine's catalog epoch at preparation, and a
// lookup whose entry was prepared under an older epoch is a miss — the
// entry is dropped and the statement re-prepared against the current
// catalog. Engine.Register bumps the epoch, so the instant a relation
// is replaced, every cached plan that might have validated against the
// old schema (or carry plan text reflecting the old table) is
// unservable. The Invalidations counter distinguishes these
// epoch-forced misses from cold ones.
//
// Capacity is a plain LRU bound: the cache never exceeds cap entries,
// evicting the least recently used. All methods are safe for
// concurrent use.
type PlanCache struct {
	mu  sync.Mutex
	cap int
	lru *list.List // front = most recent; values are *cacheEntry
	byK map[PlanKey]*list.Element

	hits          uint64
	misses        uint64
	invalidations uint64
	evictions     uint64
}

// PlanKey identifies one cached statement: the tenant, every tenant
// setting its sessions plan or run under, and the statement text — two
// tenants (or one reconfigured tenant) never share an entry unless all
// of them agree. MaxInflight, RatePerSec and Burst are deliberately
// absent: they gate admission, not planning.
type PlanKey struct {
	Tenant    string
	Options   sql.QueryOptions
	Priority  string
	Weight    float64
	Statement string
}

type cacheEntry struct {
	key   PlanKey
	stmt  *sql.Stmt
	epoch uint64
}

// PlanCacheStats is a counter snapshot for /metrics.
type PlanCacheStats struct {
	Entries       int    `json:"entries"`
	Capacity      int    `json:"capacity"`
	Hits          uint64 `json:"hits"`
	Misses        uint64 `json:"misses"`
	Invalidations uint64 `json:"invalidations"`
	Evictions     uint64 `json:"evictions"`
}

// NewPlanCache returns a cache bounded to capacity entries (minimum 1).
func NewPlanCache(capacity int) *PlanCache {
	if capacity < 1 {
		capacity = 1
	}
	return &PlanCache{cap: capacity, lru: list.New(), byK: map[PlanKey]*list.Element{}}
}

// Key builds the cache key of a tenant's statement.
func (c *PlanCache) Key(tenant *Tenant, statement string) PlanKey {
	return PlanKey{tenant.Name, tenant.QueryOptions, tenant.Priority, tenant.Weight, statement}
}

// Get returns the cached statement for key if one exists AND it was
// prepared under the given catalog epoch. An entry from an older epoch
// is removed and counted as an invalidation (the caller re-prepares); a
// plain absence is a miss.
func (c *PlanCache) Get(key PlanKey, epoch uint64) (*sql.Stmt, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byK[key]
	if !ok {
		c.misses++
		return nil, false
	}
	e := el.Value.(*cacheEntry)
	if e.epoch != epoch {
		c.removeLocked(el)
		c.invalidations++
		c.misses++
		return nil, false
	}
	c.lru.MoveToFront(el)
	c.hits++
	return e.stmt, true
}

// Put stores a statement prepared under the given epoch, evicting the
// least recently used entry when full. A concurrent Put for the same
// key just refreshes the entry.
func (c *PlanCache) Put(key PlanKey, stmt *sql.Stmt, epoch uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byK[key]; ok {
		el.Value.(*cacheEntry).stmt = stmt
		el.Value.(*cacheEntry).epoch = epoch
		c.lru.MoveToFront(el)
		return
	}
	c.byK[key] = c.lru.PushFront(&cacheEntry{key: key, stmt: stmt, epoch: epoch})
	for c.lru.Len() > c.cap {
		c.removeLocked(c.lru.Back())
		c.evictions++
	}
}

// removeLocked unlinks one element. Callers hold c.mu.
func (c *PlanCache) removeLocked(el *list.Element) {
	c.lru.Remove(el)
	delete(c.byK, el.Value.(*cacheEntry).key)
}

// Stats snapshots the counters.
func (c *PlanCache) Stats() PlanCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return PlanCacheStats{
		Entries: c.lru.Len(), Capacity: c.cap,
		Hits: c.hits, Misses: c.misses,
		Invalidations: c.invalidations, Evictions: c.evictions,
	}
}
