package resultcache

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

func key(n int) Key {
	return Key{
		SHA256:  HashBytes([]byte(fmt.Sprintf("binary-%d", n))),
		Variant: "recT.xrefT.tailT",
		Schema:  1,
	}
}

func TestMemoryGetPut(t *testing.T) {
	c, err := New(Config{MaxEntries: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, ok := c.Get(key(1)); ok {
		t.Fatal("hit on empty cache")
	}
	c.Put(key(1), []byte("one"), nil)
	got, _, ok := c.Get(key(1))
	if !ok || string(got) != "one" {
		t.Fatalf("got %q %v", got, ok)
	}
	// Same hash, different variant or schema: distinct entries.
	k2 := key(1)
	k2.Variant = "recF.xrefF.tailF"
	if _, _, ok := c.Get(k2); ok {
		t.Fatal("variant aliased")
	}
	k3 := key(1)
	k3.Schema = 2
	if _, _, ok := c.Get(k3); ok {
		t.Fatal("schema aliased")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 3 || st.Puts != 1 || st.Entries != 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestLRUEvictsOldest(t *testing.T) {
	c, err := New(Config{MaxEntries: 2})
	if err != nil {
		t.Fatal(err)
	}
	c.Put(key(1), []byte("1"), nil)
	c.Put(key(2), []byte("2"), nil)
	c.Get(key(1)) // make key(2) the oldest
	c.Put(key(3), []byte("3"), nil)
	if _, _, ok := c.Get(key(2)); ok {
		t.Fatal("least-recently-used entry survived eviction")
	}
	for _, n := range []int{1, 3} {
		if _, _, ok := c.Get(key(n)); !ok {
			t.Fatalf("entry %d evicted wrongly", n)
		}
	}
	if st := c.Stats(); st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestPutOverwritesInPlace(t *testing.T) {
	c, err := New(Config{MaxEntries: 2})
	if err != nil {
		t.Fatal(err)
	}
	c.Put(key(1), []byte("old"), nil)
	c.Put(key(1), []byte("new"), nil)
	got, _, ok := c.Get(key(1))
	if !ok || string(got) != "new" {
		t.Fatalf("got %q %v", got, ok)
	}
	if st := c.Stats(); st.Entries != 1 || st.Evictions != 0 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestDiskPersistsAcrossInstances(t *testing.T) {
	dir := t.TempDir()
	c1, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	c1.Put(key(1), []byte("persisted"), nil)

	// A fresh cache over the same directory serves the entry from disk
	// and promotes it to memory.
	c2, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	got, _, ok := c2.Get(key(1))
	if !ok || string(got) != "persisted" {
		t.Fatalf("disk miss: %q %v", got, ok)
	}
	st := c2.Stats()
	if st.DiskHits != 1 || st.MemHits != 0 {
		t.Fatalf("stats after disk hit: %+v", st)
	}
	if _, _, ok := c2.Get(key(1)); !ok {
		t.Fatal("promoted entry missed")
	}
	if st := c2.Stats(); st.MemHits != 1 {
		t.Fatalf("stats after promotion: %+v", st)
	}
}

// entryPath returns the single .rc file in dir.
func entryPath(t *testing.T, dir string) string {
	t.Helper()
	matches, err := filepath.Glob(filepath.Join(dir, "*.rc"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("want exactly one entry file, got %v (%v)", matches, err)
	}
	return matches[0]
}

// TestCorruptEntriesAreDroppedNotServed mutates the on-disk entry in
// every corruption class and requires each to read as a clean miss
// that deletes the bad file.
func TestCorruptEntriesAreDroppedNotServed(t *testing.T) {
	payload := []byte(strings.Repeat("result-payload ", 100))
	corruptions := map[string]func([]byte) []byte{
		"truncated-header":  func(b []byte) []byte { return b[:8] },
		"truncated-payload": func(b []byte) []byte { return b[:len(b)-7] },
		"empty":             func([]byte) []byte { return nil },
		"bad-magic":         func(b []byte) []byte { return append([]byte("wrongmag"), b[8:]...) },
		"flipped-bit": func(b []byte) []byte {
			b[len(b)-1] ^= 0x40
			return b
		},
		"trailing-garbage": func(b []byte) []byte { return append(b, "extra"...) },
		"not-a-cache-file": func([]byte) []byte { return []byte("just some text\nmore text\n") },
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			c, err := New(Config{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			c.Put(key(1), payload, nil)
			path := entryPath(t, dir)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, corrupt(append([]byte(nil), raw...)), 0o644); err != nil {
				t.Fatal(err)
			}

			// Fresh instance: memory is cold, the corrupt disk entry is
			// the only copy.
			c2, err := New(Config{Dir: dir})
			if err != nil {
				t.Fatal(err)
			}
			if got, _, ok := c2.Get(key(1)); ok {
				t.Fatalf("corrupt entry served: %q", got)
			}
			if st := c2.Stats(); st.CorruptDrops != 1 {
				t.Fatalf("stats: %+v", st)
			}
			if _, err := os.Stat(path); !os.IsNotExist(err) {
				t.Fatalf("corrupt file not deleted: %v", err)
			}
			// The slot is reusable after the drop.
			c2.Put(key(1), payload, nil)
			if got, _, ok := c2.Get(key(1)); !ok || !bytes.Equal(got, payload) {
				t.Fatal("re-put after corruption drop failed")
			}
		})
	}
}

func TestDiskWriteFailureDegradesToMemory(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	// Remove the directory out from under the cache: disk writes now
	// fail, but Put/Get must keep working from memory.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	c.Put(key(1), []byte("memory-only"), nil)
	got, _, ok := c.Get(key(1))
	if !ok || string(got) != "memory-only" {
		t.Fatalf("memory fallback broken: %q %v", got, ok)
	}
	if st := c.Stats(); st.DiskErrors == 0 {
		t.Fatalf("disk error not counted: %+v", st)
	}
}

func TestKeyStringIsFilenameSafeAndDistinct(t *testing.T) {
	k := key(1)
	s := k.String()
	if strings.ContainsAny(s, "/\\ \t\n") {
		t.Fatalf("key string %q not filename-safe", s)
	}
	k2 := key(2)
	if s == k2.String() {
		t.Fatal("distinct keys collide")
	}
	if !strings.HasPrefix(s, "v1-") {
		t.Fatalf("schema version not in key string: %q", s)
	}
}

// TestConcurrentReadersWriters hammers one cache from many goroutines
// mixing hits, misses, puts, evictions, and disk IO; run under -race
// this is the concurrency-safety proof.
func TestConcurrentReadersWriters(t *testing.T) {
	c, err := New(Config{MaxEntries: 8, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	const (
		workers = 8
		rounds  = 200
		keys    = 16
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				n := (w + i) % keys
				if i%3 == 0 {
					c.Put(key(n), []byte(fmt.Sprintf("payload-%d", n)), nil)
				} else if got, _, ok := c.Get(key(n)); ok {
					want := fmt.Sprintf("payload-%d", n)
					if string(got) != want {
						t.Errorf("key %d: got %q want %q", n, got, want)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	st := c.Stats()
	if st.Puts == 0 || st.Hits == 0 {
		t.Fatalf("implausible stats after hammering: %+v", st)
	}
	if st.Entries > 8 {
		t.Fatalf("LRU bound violated: %d entries", st.Entries)
	}
	if st.CorruptDrops != 0 {
		t.Fatalf("atomic writes produced corrupt reads: %+v", st)
	}
}

// TestDiskBudgetHoldsUnderConcurrentWriters hammers a byte-budgeted
// disk cache from many goroutines and checks the contract: once the
// writers quiesce the directory fits the budget, evictions happened
// oldest-first (early keys gone, latest keys present), and no
// surviving entry ever reads back wrong.
func TestDiskBudgetHoldsUnderConcurrentWriters(t *testing.T) {
	dir := t.TempDir()
	const budget = 64 << 10
	c, err := New(Config{MaxEntries: 4, Dir: dir, MaxBytes: budget})
	if err != nil {
		t.Fatal(err)
	}
	payload := func(n int) []byte {
		b := bytes.Repeat([]byte{byte(n)}, 2048)
		copy(b, fmt.Sprintf("payload-%d", n))
		return b
	}
	const writers = 8
	const perWriter = 16
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				n := w*perWriter + i
				c.Put(key(n), payload(n), nil)
			}
		}()
	}
	wg.Wait()
	if got := diskUsage(dir); got > budget {
		t.Fatalf("disk usage %d exceeds budget %d after writers quiesced", got, budget)
	}
	st := c.Stats()
	if st.DiskEvictions == 0 {
		t.Fatalf("128 × ~2KB entries under a 64KB budget evicted nothing: %+v", st)
	}
	if st.DiskBytes > budget {
		t.Fatalf("tracked DiskBytes %d exceeds budget %d", st.DiskBytes, budget)
	}
	// Survivors read back correct (never a wrong hit), evictees miss.
	survivors := 0
	for n := 0; n < writers*perWriter; n++ {
		got, _, ok := c.Get(key(n))
		if !ok {
			continue
		}
		survivors++
		if !bytes.Equal(got, payload(n)) {
			t.Fatalf("key %d: surviving entry reads back wrong", n)
		}
	}
	if survivors == 0 {
		t.Fatal("budget eviction emptied the cache entirely")
	}
}

// TestValueRidesWithPayload pins the decoded value's life in the memory
// tier: a value put with a payload comes back on a memory hit, the next
// Put of the key replaces it with the payload, it goes with its entry
// on eviction, and it is never written to disk, so an entry promoted
// from disk has none.
func TestValueRidesWithPayload(t *testing.T) {
	dir := t.TempDir()
	c, err := New(Config{MaxEntries: 2, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	c.Put(key(1), []byte("one"), "decoded one")
	if got, v, ok := c.Get(key(1)); !ok || string(got) != "one" || v != "decoded one" {
		t.Fatalf("memory hit = %q, %v, %v; want the payload and its value", got, v, ok)
	}
	c.Put(key(1), []byte("uno"), "decoded uno")
	if got, v, _ := c.Get(key(1)); string(got) != "uno" || v != "decoded uno" {
		t.Fatalf("after a second put: %q, %v", got, v)
	}
	c.Put(key(1), []byte("eins"), nil)
	if got, v, _ := c.Get(key(1)); string(got) != "eins" || v != nil {
		t.Fatalf("a put without a value kept the old one: %q, %v", got, v)
	}

	// Two more entries evict key(1) from memory; the disk still has its
	// payload, which comes back without a value.
	c.Put(key(1), []byte("one"), "decoded one")
	c.Put(key(2), []byte("two"), "decoded two")
	c.Put(key(3), []byte("three"), "decoded three")
	if got, v, ok := c.Get(key(1)); !ok || string(got) != "one" || v != nil {
		t.Fatalf("after eviction: %q, %v, %v; want the disk payload without a value", got, v, ok)
	}
	c2, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if got, v, ok := c2.Get(key(3)); !ok || string(got) != "three" || v != nil {
		t.Fatalf("promoted from disk: %q, %v, %v; want the payload without a value", got, v, ok)
	}
	if got, v, ok := c2.Get(key(3)); !ok || string(got) != "three" || v != nil {
		t.Fatalf("memory hit on a promoted entry: %q, %v, %v", got, v, ok)
	}
}

// TestFillOnlyWhileHoldingPayload pins Fill: it gives an entry promoted
// from disk the value its payload was decoded into, without a disk
// write or a Put, and does nothing once the entry holds another
// payload or has left memory.
func TestFillOnlyWhileHoldingPayload(t *testing.T) {
	dir := t.TempDir()
	c1, err := New(Config{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	c1.Put(key(1), []byte("one"), nil)
	c, err := New(Config{MaxEntries: 1, Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	got, _, _ := c.Get(key(1))
	c.Fill(key(1), got, "decoded one")
	if _, v, _ := c.Get(key(1)); v != "decoded one" {
		t.Fatalf("filled value %v, want the decoded payload", v)
	}
	if st := c.Stats(); st.Puts != 0 {
		t.Fatalf("Fill counted as a put: %+v", st)
	}
	if raw, err := os.ReadFile(entryPath(t, dir)); err != nil || strings.Contains(string(raw), "decoded") {
		t.Fatalf("Fill reached the disk entry: %q, %v", raw, err)
	}

	// A payload equal in bytes but put since is not the one decoded.
	c.Put(key(1), []byte("one"), nil)
	c.Fill(key(1), got, "stale")
	if _, v, _ := c.Get(key(1)); v != nil {
		t.Fatalf("a fill for a replaced payload stuck: %v", v)
	}
	// An evicted entry takes no fill, and comes back without a value.
	now, _, _ := c.Get(key(1))
	c.Put(key(2), []byte("two"), nil)
	c.Fill(key(1), now, "evicted")
	if _, v, ok := c.Get(key(1)); !ok || v != nil {
		t.Fatalf("a fill of an evicted entry stuck: %v, %v", v, ok)
	}
}

// TestConcurrentValues mixes puts, gets and fills of a few keys from
// many goroutines (run under -race): every value a Get returns belongs
// to the payload returned with it.
func TestConcurrentValues(t *testing.T) {
	c, err := New(Config{MaxEntries: 4, Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	const (
		workers = 8
		rounds  = 200
		keys    = 6
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				n := (w + i) % keys
				if i%3 == 0 {
					p := fmt.Sprintf("payload-%d-%d-%d", n, w, i)
					c.Put(key(n), []byte(p), "put:"+p)
					continue
				}
				got, v, ok := c.Get(key(n))
				if !ok {
					continue
				}
				if v != nil && v != "put:"+string(got) && v != "fill:"+string(got) {
					t.Errorf("key %d: payload %q came with value %v", n, got, v)
					return
				}
				c.Fill(key(n), got, "fill:"+string(got))
			}
		}()
	}
	wg.Wait()
	if st := c.Stats(); st.Puts != workers*((rounds+2)/3) {
		t.Fatalf("puts %d, want %d: fills must not count", st.Puts, workers*((rounds+2)/3))
	}
}
