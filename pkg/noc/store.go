package noc

import (
	"fmt"

	"nocmap/internal/service"
	"nocmap/internal/store"
)

// ResultStore is the pluggable result-store interface behind the server's
// cache: Get/Put/UpgradeIfBetter keyed by canonical request digest. Assign
// one to ServerConfig.Store to replace the default in-memory LRU; build the
// bundled backends with OpenStore. The server owns the store and closes it
// with the pool.
type ResultStore = store.Store

// StoreConfig selects and sizes a result-store backend for OpenStore.
type StoreConfig struct {
	// Backend picks the store: "memory" (the default — a process-local
	// LRU) or "disk" (content-addressed files under Dir, durable across
	// restarts, fronted by a memory LRU).
	Backend string
	// Dir is the disk-store root directory (required for "disk").
	Dir string
	// CacheEntries bounds the memory tier (default 128).
	CacheEntries int
}

// OpenStore builds a result store from cfg. The returned store plugs into
// ServerConfig.Store; the server closes it on Close.
func OpenStore(cfg StoreConfig) (ResultStore, error) {
	entries := cfg.CacheEntries
	if entries <= 0 {
		entries = 128
	}
	switch cfg.Backend {
	case "", "memory":
		if cfg.Dir != "" {
			return nil, fmt.Errorf("noc: store backend %q does not take a directory", cfg.Backend)
		}
		return store.NewMemory(entries), nil
	case "disk":
		if cfg.Dir == "" {
			return nil, fmt.Errorf("noc: the disk store backend needs a directory")
		}
		d, err := store.OpenDisk(cfg.Dir, store.DiskOptions{
			CacheEntries: entries,
			Codec:        service.ResponseCodec{},
		})
		if err != nil {
			return nil, err
		}
		return d, nil
	default:
		return nil, fmt.Errorf("noc: unknown store backend %q (valid: memory, disk)", cfg.Backend)
	}
}
