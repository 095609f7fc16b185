// Package resultcache is a content-addressed, versioned store for
// serialized analysis results.
//
// A cache entry is keyed by the SHA-256 of the analyzed binary's
// bytes, the analysis variant (the strategy signature), and the result
// schema version — so byte-identical binaries analyzed the same way
// share one entry, a strategy change never aliases, and a codec schema
// bump invalidates every stored encoding at once. Payloads are opaque
// bytes: the package deliberately knows nothing about the result
// encoding (the root fetch package owns the codec), which keeps the
// dependency arrow pointing one way. A memory entry may also carry the
// caller's decoded form of its payload, an opaque value that is never
// written to disk: it is put with the payload, replaced with it, and
// dropped on eviction, and a caller that decodes an entry promoted
// from disk can fill it in (Fill), so the next hit decodes nothing.
//
// The store is a two-level hierarchy: a bounded in-memory LRU front,
// and an optional on-disk back (Config.Dir). Disk writes are atomic —
// payloads land under a temporary name and are renamed into place — so
// a crash can never leave a half-written entry visible. Disk reads are
// corruption-tolerant: every entry carries a header with the payload's
// length and SHA-256, and an entry that fails verification (truncated,
// bit-flipped, or simply not a cache file) is treated as a miss and
// deleted, never returned. All operations are safe for concurrent use.
package resultcache

import (
	"bufio"
	"bytes"
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
)

// Key identifies one cache entry: one binary, analyzed one way, under
// one result schema.
type Key struct {
	// SHA256 is the content hash of the analyzed binary's bytes.
	SHA256 [sha256.Size]byte
	// Variant distinguishes analysis configurations that produce
	// different results for the same binary (the strategy signature).
	// It must be filename-safe: letters, digits, '-', '+', '.', '_'.
	Variant string
	// Schema is the version of the serialized result format stored
	// under this key; see fetch.ResultSchemaVersion.
	Schema int
}

// String renders the key as a filename-safe identifier,
// "v<schema>-<variant>-<hex sha256>".
func (k Key) String() string {
	return fmt.Sprintf("v%d-%s-%s", k.Schema, k.Variant, hex.EncodeToString(k.SHA256[:]))
}

// HashBytes returns the content hash a Key uses for raw binary bytes.
func HashBytes(data []byte) [sha256.Size]byte {
	return sha256.Sum256(data)
}

// HashFile streams a file through the content hash without loading it
// into memory — the file-backed analysis path's key derivation.
func HashFile(path string) ([sha256.Size]byte, error) {
	var sum [sha256.Size]byte
	f, err := os.Open(path)
	if err != nil {
		return sum, err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return sum, err
	}
	copy(sum[:], h.Sum(nil))
	return sum, nil
}

// HashRange returns the content hash for one FDE-delimited byte range
// of a binary. The hash binds the range's start address in addition to
// its bytes: x86-64 code is position-dependent (RIP-relative operands,
// direct call displacements), so byte-identical bodies at different
// addresses — the ICF shape — must never alias one function-tier
// entry. The address is mixed in as a fixed 8-byte little-endian
// prefix, so the mapping (addr, bytes) → hash is injective up to
// SHA-256 collisions: equal inputs always collide, and any change to
// either the address or any byte of the range yields a new hash.
func HashRange(addr uint64, data []byte) [sha256.Size]byte {
	h := sha256.New()
	var pre [8]byte
	binary.LittleEndian.PutUint64(pre[:], addr)
	h.Write(pre[:])
	h.Write(data)
	var sum [sha256.Size]byte
	h.Sum(sum[:0])
	return sum
}

// Config parameterizes New.
type Config struct {
	// MaxEntries bounds the in-memory LRU; non-positive selects
	// DefaultMaxEntries. Disk entries are not counted or evicted.
	MaxEntries int
	// Dir enables the on-disk level when non-empty. The directory is
	// created if missing; entries persist across processes.
	Dir string
	// MaxBytes bounds the on-disk level's total size in bytes
	// (headers included). Zero or negative means unbounded. When a Put
	// pushes the directory past the budget, entries are evicted
	// oldest-first by modification time until the budget holds again;
	// the entry just written is the newest and is evicted last.
	MaxBytes int64
}

// DefaultMaxEntries is the in-memory LRU capacity when Config leaves
// MaxEntries unset.
const DefaultMaxEntries = 1024

// Stats are the cache's monotonic operation counters plus the current
// memory entry count. Hits and Misses partition Get calls; MemHits and
// DiskHits partition Hits by the level that served them. CorruptDrops
// counts on-disk entries discarded because their integrity check
// failed.
type Stats struct {
	Hits         int64
	Misses       int64
	MemHits      int64
	DiskHits     int64
	Puts         int64
	Evictions    int64
	CorruptDrops int64
	DiskErrors   int64
	// DiskEvictions counts on-disk entries removed to hold the
	// Config.MaxBytes budget.
	DiskEvictions int64
	// DiskBytes is the current estimated on-disk size in bytes.
	DiskBytes int64
	// Entries is the current in-memory LRU population.
	Entries int
}

// Cache is the two-level content-addressed store. The zero value is
// not usable; construct with New.
type Cache struct {
	mu      sync.Mutex
	cfg     Config
	entries map[Key]*list.Element
	order   *list.List // front = most recently used
	stats   Stats

	// diskMu serializes byte-budget accounting and eviction sweeps. It
	// is distinct from mu so budget enforcement (which lists and
	// deletes files) never blocks memory hits.
	diskMu    sync.Mutex
	diskBytes int64
}

// lruEntry is one resident memory entry: the payload and the caller's
// decoded form of it, if any.
type lruEntry struct {
	key   Key
	data  []byte
	value any
}

// New builds a Cache from cfg, creating the disk directory when one is
// configured.
func New(cfg Config) (*Cache, error) {
	if cfg.MaxEntries <= 0 {
		cfg.MaxEntries = DefaultMaxEntries
	}
	c := &Cache{
		cfg:     cfg,
		entries: make(map[Key]*list.Element),
		order:   list.New(),
	}
	if cfg.Dir != "" {
		if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
			return nil, fmt.Errorf("resultcache: %w", err)
		}
		if cfg.MaxBytes > 0 {
			// Seed the usage estimate from what already persists, so a
			// restarted process keeps honoring the budget.
			c.diskBytes = diskUsage(cfg.Dir)
			c.enforceBudget()
		}
	}
	return c, nil
}

// Get returns the payload stored under k and the value put or filled
// with it (nil when there is none), or ok=false on a miss. A
// disk-level hit is promoted into the memory LRU, without a value. The
// returned payload and value are shared with the cache and must be
// treated as read-only.
//
// Disk reads happen outside the mutex: a Get that falls through to
// disk never blocks other goroutines' memory hits behind file IO.
func (c *Cache) Get(k Key) ([]byte, any, bool) {
	c.mu.Lock()
	if el, ok := c.entries[k]; ok {
		c.order.MoveToFront(el)
		c.stats.Hits++
		c.stats.MemHits++
		e := el.Value.(*lruEntry)
		data, value := e.data, e.value
		c.mu.Unlock()
		return data, value, true
	}
	if c.cfg.Dir == "" {
		c.stats.Misses++
		c.mu.Unlock()
		return nil, nil, false
	}
	c.mu.Unlock()

	data, st := diskGet(c.path(k))
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats.CorruptDrops += st.corruptDrops
	c.stats.DiskErrors += st.diskErrors
	if data == nil {
		c.stats.Misses++
		return nil, nil, false
	}
	c.stats.Hits++
	c.stats.DiskHits++
	// Promote, unless a concurrent Put/Get landed the key meanwhile —
	// then keep the resident entry authoritative.
	if el, ok := c.entries[k]; ok {
		c.order.MoveToFront(el)
		e := el.Value.(*lruEntry)
		return e.data, e.value, true
	}
	c.insertLocked(k, data, nil)
	return data, nil, true
}

// Put stores data under k in the memory LRU and, when configured, on
// disk. value, which may be nil, is the caller's decoded form of data:
// it is kept beside data in memory only, and a later Put of k replaces
// both. Neither may be mutated after the call. Disk failures degrade
// the entry to memory-only and are counted in Stats.DiskErrors, never
// surfaced: a result cache must not turn a successful analysis into an
// error.
//
// The disk write happens outside the mutex; concurrent Puts of one
// key are safe because each writes its own temp file and the final
// rename is atomic (last writer wins with a complete entry).
func (c *Cache) Put(k Key, data []byte, value any) {
	c.mu.Lock()
	c.stats.Puts++
	if el, ok := c.entries[k]; ok {
		e := el.Value.(*lruEntry)
		e.data, e.value = data, value
		c.order.MoveToFront(el)
	} else {
		c.insertLocked(k, data, value)
	}
	dir := c.cfg.Dir
	c.mu.Unlock()
	if dir != "" {
		if err := diskPut(dir, c.path(k), data); err != nil {
			c.mu.Lock()
			c.stats.DiskErrors++
			c.mu.Unlock()
		} else if c.cfg.MaxBytes > 0 {
			c.diskMu.Lock()
			c.diskBytes += entryDiskSize(len(data))
			over := c.diskBytes > c.cfg.MaxBytes
			c.diskMu.Unlock()
			if over {
				c.enforceBudget()
			}
		}
	}
}

// Fill sets value as the decoded form of k's memory entry while that
// entry still holds data, the payload a Get returned and the caller
// decoded; otherwise (evicted, or put again since) it does nothing. It
// writes nothing to disk and counts as no Put. value must not be
// mutated after the call.
func (c *Cache) Fill(k Key, data []byte, value any) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[k]; ok {
		if e := el.Value.(*lruEntry); len(e.data) == len(data) && (len(data) == 0 || &e.data[0] == &data[0]) {
			e.value = value
		}
	}
}

// entryDiskSize estimates one entry's on-disk footprint: header line
// plus payload. The header is "resultcache1 <64 hex> <len>\n"; its
// length varies only with the decimal digits of len, so the estimate
// is exact.
func entryDiskSize(payloadLen int) int64 {
	return int64(len(diskMagic) + 1 + 2*sha256.Size + 1 + len(fmt.Sprint(payloadLen)) + 1 + payloadLen)
}

// diskUsage sums the sizes of all cache entries in dir.
func diskUsage(dir string) int64 {
	var total int64
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	for _, e := range ents {
		if e.IsDir() || filepath.Ext(e.Name()) != ".rc" {
			continue
		}
		if info, err := e.Info(); err == nil {
			total += info.Size()
		}
	}
	return total
}

// enforceBudget deletes on-disk entries oldest-first (by modification
// time) until the directory fits Config.MaxBytes. The sweep rescans
// the directory so the usage estimate re-synchronizes with reality
// (concurrent writers, external deletions) every time it runs; races
// with concurrent Puts can only make the sweep conservative, never
// corrupt an entry, because deletion is whole-file and readers verify
// integrity per entry.
func (c *Cache) enforceBudget() {
	c.diskMu.Lock()
	defer c.diskMu.Unlock()
	ents, err := os.ReadDir(c.cfg.Dir)
	if err != nil {
		return
	}
	type fileInfo struct {
		name  string
		size  int64
		mtime int64
	}
	var files []fileInfo
	var total int64
	for _, e := range ents {
		if e.IsDir() || filepath.Ext(e.Name()) != ".rc" {
			continue
		}
		info, err := e.Info()
		if err != nil {
			continue
		}
		files = append(files, fileInfo{e.Name(), info.Size(), info.ModTime().UnixNano()})
		total += info.Size()
	}
	sort.Slice(files, func(i, j int) bool {
		if files[i].mtime != files[j].mtime {
			return files[i].mtime < files[j].mtime
		}
		return files[i].name < files[j].name
	})
	var evicted int64
	for _, f := range files {
		if total <= c.cfg.MaxBytes {
			break
		}
		if os.Remove(filepath.Join(c.cfg.Dir, f.name)) == nil {
			total -= f.size
			evicted++
		}
	}
	c.diskBytes = total
	if evicted > 0 {
		c.mu.Lock()
		c.stats.DiskEvictions += evicted
		c.mu.Unlock()
	}
}

// insertLocked adds a new entry at the LRU front, evicting from the
// back past capacity. Callers hold c.mu.
func (c *Cache) insertLocked(k Key, data []byte, value any) {
	c.entries[k] = c.order.PushFront(&lruEntry{key: k, data: data, value: value})
	for c.order.Len() > c.cfg.MaxEntries {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*lruEntry).key)
		c.stats.Evictions++
	}
}

// Stats returns a snapshot of the operation counters.
func (c *Cache) Stats() Stats {
	c.diskMu.Lock()
	diskBytes := c.diskBytes
	c.diskMu.Unlock()
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.stats
	st.Entries = c.order.Len()
	st.DiskBytes = diskBytes
	return st
}

// --- disk level ---

// diskMagic heads every on-disk entry. The full header line is
// "resultcache1 <payload sha256 hex> <payload length>\n" followed by
// exactly the payload bytes; anything that deviates is corrupt.
const diskMagic = "resultcache1"

// maxDiskEntry bounds how large an on-disk entry may claim to be; a
// corrupt header cannot make a read allocate unbounded memory.
const maxDiskEntry = 1 << 30

// path returns k's on-disk location.
func (c *Cache) path(k Key) string {
	return filepath.Join(c.cfg.Dir, k.String()+".rc")
}

// diskPut atomically writes an entry: payload and integrity header go
// to a temporary file in the same directory, which is then renamed
// over the final name. Readers therefore see either the previous
// complete entry or the new complete entry, never a partial write.
// It runs without the cache mutex and touches no shared state.
func diskPut(dir, path string, data []byte) error {
	sum := sha256.Sum256(data)
	tmp, err := os.CreateTemp(dir, "tmp-*.rc")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	header := fmt.Sprintf("%s %s %d\n", diskMagic, hex.EncodeToString(sum[:]), len(data))
	if _, err := tmp.WriteString(header); err != nil {
		tmp.Close()
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// diskStats carries the counter deltas a lock-free disk read produced,
// applied under the mutex by the caller.
type diskStats struct {
	corruptDrops int64
	diskErrors   int64
}

// diskGet reads and verifies an on-disk entry; nil data means a miss.
// Any integrity failure — bad magic, malformed header, short payload,
// hash mismatch — counts as a corrupt drop: the file is deleted
// (best-effort) and the lookup reports a miss. It runs without the
// cache mutex and touches no shared state.
func diskGet(path string) ([]byte, diskStats) {
	var st diskStats
	f, err := os.Open(path)
	if err != nil {
		if !os.IsNotExist(err) {
			st.diskErrors++
		}
		return nil, st
	}
	defer f.Close()
	data, err := readVerified(f)
	if err != nil {
		st.corruptDrops++
		os.Remove(path)
		return nil, st
	}
	return data, st
}

// readVerified parses one entry stream against its integrity header.
func readVerified(f *os.File) ([]byte, error) {
	r := bufio.NewReader(f)
	header, err := r.ReadString('\n')
	if err != nil {
		return nil, fmt.Errorf("resultcache: truncated header: %w", err)
	}
	var magic, sumHex string
	var n int
	if _, err := fmt.Sscanf(header, "%s %s %d\n", &magic, &sumHex, &n); err != nil {
		return nil, fmt.Errorf("resultcache: malformed header: %w", err)
	}
	if magic != diskMagic {
		return nil, fmt.Errorf("resultcache: bad magic %q", magic)
	}
	wantSum, err := hex.DecodeString(sumHex)
	if err != nil || len(wantSum) != sha256.Size {
		return nil, fmt.Errorf("resultcache: bad header hash")
	}
	if n < 0 || n > maxDiskEntry {
		return nil, fmt.Errorf("resultcache: implausible payload length %d", n)
	}
	data := make([]byte, n)
	if _, err := io.ReadFull(r, data); err != nil {
		return nil, fmt.Errorf("resultcache: truncated payload: %w", err)
	}
	if _, err := r.ReadByte(); err == nil {
		// Any readable byte past the payload means the file is longer
		// than the header claims.
		return nil, fmt.Errorf("resultcache: trailing bytes after payload")
	}
	got := sha256.Sum256(data)
	if !bytes.Equal(got[:], wantSum) {
		return nil, fmt.Errorf("resultcache: payload hash mismatch")
	}
	return data, nil
}
