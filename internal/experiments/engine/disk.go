package engine

import (
	"sync"
	"sync/atomic"

	"smartconf/internal/experiments/engine/diskcache"
)

// The disk layer sits beneath the in-memory single-flight cache: a Memo miss
// first consults the persistent cache, and only simulates when the disk
// misses too. Loads and stores happen inside the entry's once.Do, so each key
// touches the disk at most once per process no matter how many goroutines
// race on it.

var (
	stampMu   sync.RWMutex
	diskStamp string
	diskLoads atomic.Uint64
)

// EnableDiskCache turns on the persistent run cache rooted at dir, stamping
// every entry with the caller's scenario-code version (entries written under
// a different stamp are invisible). An empty dir disables the layer. Returns
// any directory-creation error, in which case the layer stays off.
func EnableDiskCache(dir, stamp string) error {
	stampMu.Lock()
	diskStamp = stamp
	stampMu.Unlock()
	return diskcache.Configure(dir)
}

// diskKey widens an in-memory key with the configured version stamp.
func diskKey(k Key) diskcache.Key {
	stampMu.RLock()
	s := diskStamp
	stampMu.RUnlock()
	return diskcache.Key{
		Stamp:    s,
		Scenario: k.Scenario,
		Policy:   k.Policy,
		Seed:     k.Seed,
		Schedule: k.Schedule,
	}
}

// DiskLoads reports how many Memo computations were satisfied from the
// persistent layer (counted separately from Stats' executed and in-memory
// hits) since the last ResetCache.
func DiskLoads() uint64 { return diskLoads.Load() }

// DiskStats reports the persistent layer's cumulative load/store counters;
// see diskcache.Stats.
func DiskStats() (loadHits, loadMisses, writes, writeSkips uint64) {
	return diskcache.Stats()
}
