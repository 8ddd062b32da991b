// Package resultcache memoizes simulation results behind the canonical
// content address of their configuration (experiment.RunConfig.CanonicalKey).
//
// Every run in this codebase is a pure function of (configuration, seed,
// code version), so a result computed once is valid forever under the
// same CodeVersion. The store keeps two tiers: a bounded in-memory LRU
// for the hot set, and an optional on-disk JSON object store that
// survives process restarts and is shared between espsweep, espserved
// and espctl. Concurrent requests for the same key are collapsed by a
// singleflight group so one simulation feeds every waiter.
//
// A cached result is bit-identical to a fresh experiment.Run of the same
// configuration: the in-memory tier returns the stored struct by value,
// and the disk tier round-trips through encoding/json, whose shortest
// float formatting parses back to the exact same float64 bits (asserted
// by TestDiskRoundTripBitIdentical).
package resultcache

import (
	"container/list"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"espnuca/internal/experiment"
)

// DefaultMemEntries bounds the in-memory tier when Options.MemEntries
// is zero. A RunResult is ~200 bytes, so the default hot set costs a
// few hundred KB.
const DefaultMemEntries = 1024

// Options tune a Store.
type Options struct {
	// MemEntries bounds the in-memory LRU tier (0: DefaultMemEntries,
	// negative: disable the memory tier).
	MemEntries int
}

// Stats counts store traffic. Runs is the number of actual simulations
// executed through Run — the "zero work on a hit" assertion reads it.
type Stats struct {
	MemHits  uint64 `json:"mem_hits"`
	DiskHits uint64 `json:"disk_hits"`
	Misses   uint64 `json:"misses"`
	Stores   uint64 `json:"stores"`
	// Runs counts simulations actually executed by Run (cache misses
	// that did the work).
	Runs uint64 `json:"runs"`
	// Shared counts callers that piggybacked on another caller's
	// in-flight simulation of the same key.
	Shared uint64 `json:"shared"`
	// Bypassed counts Run calls that skipped the cache (instrumented
	// runs, which carry side-effecting telemetry sinks).
	Bypassed uint64 `json:"bypassed"`
	// MemEntries and DiskEntries are point-in-time tier sizes, filled by
	// Store.Stats. DiskEntries counts the objects this store knows of —
	// seeded by one scan at Open, then maintained on Put and disk hits —
	// so objects written by another process after Open are counted only
	// once observed.
	MemEntries  int `json:"mem_entries"`
	DiskEntries int `json:"disk_entries"`
}

// Store is a two-tier content-addressed result cache. All methods are
// goroutine-safe. A nil *Store is inert: Get always misses, Put drops,
// Run executes directly.
type Store struct {
	dir string // "" = memory-only

	mu    sync.Mutex
	byKey map[string]*list.Element
	lru   *list.List // front = most recently used
	cap   int
	disk  map[string]struct{} // known on-disk keys; nil when memory-only
	stats Stats

	flight group
}

type memEntry struct {
	key string
	res experiment.RunResult
}

// Open returns a store backed by dir ("" for a memory-only store). The
// directory and its object layout are created on demand; an existing
// store directory is picked up as-is — the object files are
// self-describing, so no index load is needed for correctness.
func Open(dir string, o Options) (*Store, error) {
	capacity := o.MemEntries
	switch {
	case capacity == 0:
		capacity = DefaultMemEntries
	case capacity < 0:
		capacity = 0
	}
	s := &Store{
		dir:   dir,
		byKey: make(map[string]*list.Element),
		lru:   list.New(),
		cap:   capacity,
	}
	if dir != "" {
		if err := os.MkdirAll(filepath.Join(dir, "objects"), 0o755); err != nil {
			return nil, fmt.Errorf("resultcache: %w", err)
		}
		// Seed the disk-entry set with one walk so Stats never has to
		// re-enumerate the object tree per call.
		s.disk = make(map[string]struct{})
		for _, key := range s.diskKeys() {
			s.disk[key] = struct{}{}
		}
	}
	return s, nil
}

// objectPath shards entries by the first key byte to keep directories
// small under large sweeps.
func (s *Store) objectPath(key string) string {
	return filepath.Join(s.dir, "objects", key[:2], key+".json")
}

// entry is the on-disk object format. Version and Key make each file
// self-describing; a mismatch (stale CodeVersion, hash collision in a
// hand-edited store) reads as a miss, never as a wrong result.
type entry struct {
	Version  string               `json:"version"`
	Key      string               `json:"key"`
	Arch     string               `json:"arch"`
	Workload string               `json:"workload"`
	Seed     uint64               `json:"seed"`
	Result   experiment.RunResult `json:"result"`
}

// Get returns the cached result for key, promoting disk hits into the
// memory tier. The boolean reports whether the key was found.
func (s *Store) Get(key string) (experiment.RunResult, bool, error) {
	if s == nil {
		return experiment.RunResult{}, false, nil
	}
	s.mu.Lock()
	if el, ok := s.byKey[key]; ok {
		s.lru.MoveToFront(el)
		s.stats.MemHits++
		res := el.Value.(*memEntry).res
		s.mu.Unlock()
		return res, true, nil
	}
	s.mu.Unlock()

	if s.dir != "" {
		e, ok, err := s.readObject(key)
		if err != nil {
			return experiment.RunResult{}, false, err
		}
		if ok {
			s.mu.Lock()
			s.stats.DiskHits++
			s.disk[key] = struct{}{} // may be another process's write
			s.addMemLocked(key, e.Result)
			s.mu.Unlock()
			return e.Result, true, nil
		}
	}
	s.mu.Lock()
	s.stats.Misses++
	s.mu.Unlock()
	return experiment.RunResult{}, false, nil
}

func (s *Store) readObject(key string) (entry, bool, error) {
	b, err := os.ReadFile(s.objectPath(key))
	if errors.Is(err, os.ErrNotExist) {
		return entry{}, false, nil
	}
	if err != nil {
		return entry{}, false, fmt.Errorf("resultcache: read %s: %w", key, err)
	}
	var e entry
	if err := json.Unmarshal(b, &e); err != nil {
		// A torn or corrupt object is a miss; the next Put rewrites it.
		return entry{}, false, nil
	}
	if e.Version != experiment.CodeVersion || e.Key != key {
		return entry{}, false, nil
	}
	return e, true, nil
}

// Put stores res under key in both tiers. rc provides the
// human-readable identity fields of the disk object.
func (s *Store) Put(key string, rc experiment.RunConfig, res experiment.RunResult) error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	s.stats.Stores++
	s.addMemLocked(key, res)
	s.mu.Unlock()
	if s.dir == "" {
		return nil
	}
	e := entry{
		Version:  experiment.CodeVersion,
		Key:      key,
		Arch:     rc.Arch,
		Workload: rc.Workload,
		Seed:     rc.Seed,
		Result:   res,
	}
	b, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("resultcache: marshal %s: %w", key, err)
	}
	path := s.objectPath(key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("resultcache: %w", err)
	}
	// Atomic publish: concurrent readers see the old file or the new
	// one, never a torn write; concurrent writers of the same key write
	// identical bytes anyway.
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+key[:8]+".tmp*")
	if err != nil {
		return fmt.Errorf("resultcache: %w", err)
	}
	if _, err := tmp.Write(b); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("resultcache: write %s: %w", key, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("resultcache: close %s: %w", key, err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("resultcache: publish %s: %w", key, err)
	}
	s.mu.Lock()
	s.disk[key] = struct{}{}
	s.mu.Unlock()
	return nil
}

// addMemLocked inserts (or refreshes) a memory-tier entry and evicts
// from the LRU tail past capacity. Caller holds s.mu.
func (s *Store) addMemLocked(key string, res experiment.RunResult) {
	if s.cap == 0 {
		return
	}
	if el, ok := s.byKey[key]; ok {
		el.Value.(*memEntry).res = res
		s.lru.MoveToFront(el)
		return
	}
	s.byKey[key] = s.lru.PushFront(&memEntry{key: key, res: res})
	for s.lru.Len() > s.cap {
		tail := s.lru.Back()
		s.lru.Remove(tail)
		delete(s.byKey, tail.Value.(*memEntry).key)
	}
}

// Stats returns a snapshot of the traffic counters and tier sizes. It
// is O(1) — /metricsz scrapes hit it, so it never walks the disk.
func (s *Store) Stats() Stats {
	if s == nil {
		return Stats{}
	}
	s.mu.Lock()
	st := s.stats
	st.MemEntries = s.lru.Len()
	st.DiskEntries = len(s.disk)
	s.mu.Unlock()
	return st
}

// diskKeys enumerates the object store on disk. Used once, at Open, to
// seed the disk-entry set — never on the Stats hot path.
func (s *Store) diskKeys() []string {
	var keys []string
	root := filepath.Join(s.dir, "objects")
	_ = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		name := d.Name()
		if filepath.Ext(name) == ".json" {
			keys = append(keys, name[:len(name)-len(".json")])
		}
		return nil
	})
	return keys
}

// Close releases the store. Every object is published by an atomic
// rename as it is stored and the store holds no open file between
// calls, so there is nothing to flush: Close returns nil and the store
// stays usable.
func (s *Store) Close() error { return nil }
