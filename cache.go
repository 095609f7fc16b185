package fetch

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"sync/atomic"

	"fetch/internal/core"
	"fetch/internal/elfx"
	"fetch/internal/resultcache"
)

// CacheConfig parameterizes NewCache.
type CacheConfig struct {
	// MaxEntries bounds the in-memory level; non-positive selects the
	// package default (1024 entries).
	MaxEntries int
	// Dir enables a persistent on-disk level when non-empty. Entries
	// survive process restarts; writes are atomic and corrupted or
	// truncated entries are detected, discarded, and recomputed rather
	// than returned.
	Dir string
	// MaxDiskBytes bounds the on-disk level's total size in bytes.
	// When a write pushes the directory past the budget, entries are
	// evicted oldest-first until it holds again. Zero or negative
	// means unbounded.
	MaxDiskBytes int64
}

// CacheStats is a snapshot of a Cache's operation counters. Hits and
// Misses partition lookups; MemHits and DiskHits partition Hits by
// serving level. CorruptDrops counts discarded on-disk entries that
// failed integrity verification. The raw store counters (Hits, Misses,
// MemHits, DiskHits, Puts) cover ALL entry families — whole-binary
// results, delta manifests, and per-function ranges; the delta tier
// counters below attribute the non-result traffic, so result-tier
// traffic is computable as Hits−ManifestHits−FnTierHits,
// Misses−ManifestMisses−FnTierMisses, and Puts−DeltaPuts.
//
// The delta tier counters describe function-granular re-analysis:
// ManifestHits/ManifestMisses count residue-keyed trace lookups on
// whole-binary misses, FnTierHits/FnTierMisses count per-function
// range-entry fetches, DeltaPuts counts manifest and range entries
// written after recorded cold runs, DeltaHits counts misses served by
// verified delta replay, and DeltaFallbacks counts delta attempts that
// fell back to the cold pipeline (a correctness-preserving refusal,
// never an error).
type CacheStats struct {
	Hits         int64
	Misses       int64
	MemHits      int64
	DiskHits     int64
	Puts         int64
	Evictions    int64
	CorruptDrops int64
	DiskErrors   int64
	// Entries is the current in-memory entry count.
	Entries int

	// DiskEvictions counts on-disk entries removed by the byte-budget
	// sweep; DiskBytes is the current on-disk usage.
	DiskEvictions int64
	DiskBytes     int64

	// Function-granular delta tier counters.
	ManifestHits   int64
	ManifestMisses int64
	FnTierHits     int64
	FnTierMisses   int64
	DeltaPuts      int64
	DeltaHits      int64
	DeltaFallbacks int64
}

// Cache is a content-addressed store of analysis results, shared
// safely by any number of concurrent analyses. Entries are keyed by
// the SHA-256 of the binary's bytes, the effective strategy, and the
// result schema version: re-analyzing a byte-identical binary with the
// same options returns the stored result without decoding a single
// instruction, while any change to the binary, the options, or the
// schema misses cleanly. Attach one to an analysis with WithCache or
// BatchOptions.Cache.
type Cache struct {
	rc *resultcache.Cache

	manifestHits   atomic.Int64
	manifestMisses atomic.Int64
	fnHits         atomic.Int64
	fnMisses       atomic.Int64
	deltaPuts      atomic.Int64
	deltaHits      atomic.Int64
	deltaFallbacks atomic.Int64
}

// NewCache builds a result cache. The zero CacheConfig is valid:
// memory-only with the default capacity. Every cache runs the
// function-granular delta tier.
func NewCache(cfg CacheConfig) (*Cache, error) {
	rc, err := resultcache.New(resultcache.Config{
		MaxEntries: cfg.MaxEntries,
		Dir:        cfg.Dir,
		MaxBytes:   cfg.MaxDiskBytes,
	})
	if err != nil {
		return nil, fmt.Errorf("fetch: %w", err)
	}
	return &Cache{rc: rc}, nil
}

// Stats returns a snapshot of the cache's counters.
func (c *Cache) Stats() CacheStats {
	st := c.rc.Stats()
	return CacheStats{
		Hits:         st.Hits,
		Misses:       st.Misses,
		MemHits:      st.MemHits,
		DiskHits:     st.DiskHits,
		Puts:         st.Puts,
		Evictions:    st.Evictions,
		CorruptDrops: st.CorruptDrops,
		DiskErrors:   st.DiskErrors,
		Entries:      st.Entries,

		DiskEvictions: st.DiskEvictions,
		DiskBytes:     st.DiskBytes,

		ManifestHits:   c.manifestHits.Load(),
		ManifestMisses: c.manifestMisses.Load(),
		FnTierHits:     c.fnHits.Load(),
		FnTierMisses:   c.fnMisses.Load(),
		DeltaPuts:      c.deltaPuts.Load(),
		DeltaHits:      c.deltaHits.Load(),
		DeltaFallbacks: c.deltaFallbacks.Load(),
	}
}

// HashBinary returns the SHA-256 content hash that addresses a
// binary's cache entries — the same hash /v1/result/{sha256} of the
// fetchd service expects.
func HashBinary(data []byte) [sha256.Size]byte {
	return resultcache.HashBytes(data)
}

// Get returns the cached Result for a binary's content hash under the
// given options, without needing the binary itself. This is the
// by-hash lookup path of the fetchd service; Analyze with WithCache
// populates the entries it serves. The Result is freshly decoded and
// owned by the caller.
func (c *Cache) Get(sum [sha256.Size]byte, opts ...Option) (*Result, bool) {
	res, _, ok := c.lookup(cacheKey(sum, buildOptions(opts).Strategy))
	return res, ok
}

// Analyze is Analyze-with-WithCache plus hit observability: it runs
// the pipeline against the cache and additionally reports whether the
// result was served from a stored entry. Servers use it to count
// cache hits per request without a second lookup; the result is
// indistinguishable from plain Analyze either way. The receiver is
// the cache used — a WithCache among opts is overridden.
func (c *Cache) Analyze(data []byte, opts ...Option) (res *Result, cached bool, err error) {
	o := buildOptions(opts)
	o.Cache = c
	return analyzeBytes(data, o)
}

// AnalyzeFile is Analyze for a binary on disk, through the file-backed
// image path: the cache key is a streaming hash and a miss analyzes an
// mmap-backed image instead of buffering the file. Servers use it to
// analyze spooled uploads without holding binary bytes on the heap.
func (c *Cache) AnalyzeFile(path string, opts ...Option) (res *Result, cached bool, err error) {
	o := buildOptions(opts)
	o.Cache = c
	return analyzeFile(path, o)
}

// lookup returns the decoded entry for a key and its stored encoding,
// if present and valid. An undecodable entry (e.g. written by a newer
// build within the same schema version) is a miss, not an error.
func (c *Cache) lookup(k resultcache.Key) (*Result, []byte, bool) {
	blob, ok := c.rc.Get(k)
	if !ok {
		return nil, nil, false
	}
	res, err := DecodeResult(blob)
	if err != nil {
		return nil, nil, false
	}
	return res, blob, true
}

// store serializes and saves an analysis result under a key, and
// returns the stored encoding. Encoding failures drop the entry
// silently (nil): caching must never turn a successful analysis into a
// failure.
func (c *Cache) store(k resultcache.Key, res *Result) []byte {
	blob, err := EncodeResult(res)
	if err != nil {
		return nil
	}
	c.rc.Put(k, blob)
	return blob
}

// strategyVariant renders a Strategy as the stable cache-key signature
// ("recT.xrefT.tailT"), using only the filename-safe characters
// resultcache.Key documents for Variant. Two option lists that resolve
// to the same strategy share cache entries; any future option that
// changes analysis output must extend this signature.
func strategyVariant(s core.Strategy) string {
	b := func(v bool) byte {
		if v {
			return 'T'
		}
		return 'F'
	}
	return fmt.Sprintf("rec%c.xref%c.tail%c", b(s.Recursive), b(s.Xref), b(s.TailCall))
}

// cacheKey assembles the full content-addressed key for one analysis.
func cacheKey(sum [sha256.Size]byte, s core.Strategy) resultcache.Key {
	return resultcache.Key{
		SHA256:  sum,
		Variant: strategyVariant(s),
		Schema:  ResultSchemaVersion,
	}
}

// --- function-granular delta tier ---
//
// Two extra entry families live beside the whole-binary results:
//
//   manifest ("mf.t<format>.<variant>", keyed by residue hash): the
//   packed core.Trace (MarshalBinary) of a recorded analysis — the
//   roster of FDE-delimited range hashes plus everything ReplayDelta
//   verifies against, and the recorded result a delta hit serves (see
//   recordResult).
//
//   function range ("fn", keyed by resultcache.HashRange): the range's
//   address (8 bytes little-endian) followed by its bytes. The key IS
//   the SHA-256 of the payload, so the store's integrity check binds
//   the payload to the key; entries are shared by every binary (and
//   every strategy) containing that exact range at that address.

// manifestKey addresses a trace by residue hash and strategy. The
// variant carries core.TraceFormat, so a manifest in an older trace
// format is never looked up.
func manifestKey(sum [sha256.Size]byte, s core.Strategy) resultcache.Key {
	return resultcache.Key{
		SHA256:  sum,
		Variant: fmt.Sprintf("mf.t%d.%s", core.TraceFormat, strategyVariant(s)),
		Schema:  ResultSchemaVersion,
	}
}

// fnKey addresses one function range by its content hash.
func fnKey(sum [sha256.Size]byte) resultcache.Key {
	return resultcache.Key{SHA256: sum, Variant: "fn", Schema: ResultSchemaVersion}
}

// storeTrace persists a recorded analysis's delta tier: the manifest
// under the residue key and each roster range under its content hash.
// Failures drop entries silently — the delta tier is an accelerator,
// never a correctness dependency.
func (c *Cache) storeTrace(tr *core.Trace, img *elfx.Image, s core.Strategy) {
	if tr == nil {
		return
	}
	blob, err := tr.MarshalBinary()
	if err != nil {
		return
	}
	c.rc.Put(manifestKey(tr.ResidueHash, s), blob)
	c.deltaPuts.Add(1)
	for i := range tr.Roster {
		ri := &tr.Roster[i]
		body := core.RangeBytes(img, ri.Start, ri.End)
		if body == nil {
			continue
		}
		payload := make([]byte, 8+len(body))
		binary.LittleEndian.PutUint64(payload, ri.Start)
		copy(payload[8:], body)
		c.rc.Put(fnKey(ri.Hash), payload)
		c.deltaPuts.Add(1)
	}
}

// loadTrace fetches and decodes the manifest for a residue hash.
func (c *Cache) loadTrace(sum [sha256.Size]byte, s core.Strategy) (*core.Trace, bool) {
	blob, ok := c.rc.Get(manifestKey(sum, s))
	if !ok {
		c.manifestMisses.Add(1)
		return nil, false
	}
	tr := new(core.Trace)
	if err := tr.UnmarshalBinary(blob); err != nil {
		c.manifestMisses.Add(1)
		return nil, false
	}
	c.manifestHits.Add(1)
	return tr, true
}

// fnRangeBytes fetches one recorded range's bytes from the function
// tier and verifies payload↔key binding (the store checks payload
// integrity on disk, but memory-level entries and the key binding are
// this layer's responsibility). Returns nil on any doubt.
func (c *Cache) fnRangeBytes(start uint64, sum [sha256.Size]byte) []byte {
	payload, ok := c.rc.Get(fnKey(sum))
	if !ok || len(payload) < 8 ||
		resultcache.HashBytes(payload) != sum ||
		binary.LittleEndian.Uint64(payload) != start {
		c.fnMisses.Add(1)
		return nil
	}
	c.fnHits.Add(1)
	return payload[8:]
}

// tryDelta attempts to serve a whole-binary miss by delta re-analysis:
// find a recorded trace with the same residue, verify the changed
// ranges are analysis-equivalent, and serve the recorded result. On
// success it returns the decoded result and the recorded entry's
// stored encoding, which the caller re-stores as-is under the new
// binary's key. The bool reports success; on failure the DeltaOutcome
// carries the fallback reason (zero value when the attempt never got
// to verification).
func (c *Cache) tryDelta(img *elfx.Image, eh *core.EHFrame, o Options) (*Result, []byte, core.DeltaOutcome, bool) {
	var zero core.DeltaOutcome
	if eh == nil || eh.Roster == nil {
		return nil, nil, zero, false
	}
	tr, ok := c.loadTrace(eh.Residue, o.Strategy)
	if !ok {
		return nil, nil, zero, false
	}
	outcome := core.ReplayDelta(core.DeltaInput{
		Img:      img,
		Sec:      eh.Sec,
		Trace:    tr,
		Roster:   eh.Roster,
		Residue:  eh.Residue,
		Strategy: o.Strategy,
		OldRangeBytes: func(i int) []byte {
			return c.fnRangeBytes(tr.Roster[i].Start, tr.Roster[i].Hash)
		},
	})
	if !outcome.OK {
		c.deltaFallbacks.Add(1)
		return nil, nil, outcome, false
	}
	blob, ok := c.rc.Get(cacheKey(tr.BinSHA, o.Strategy))
	var res *Result
	if ok {
		res, ok = servedResult(tr, blob)
	}
	if !ok {
		// The recorded result itself was evicted; nothing to serve.
		c.deltaFallbacks.Add(1)
		outcome.OK = false
		outcome.Reason = "recorded result evicted"
		return nil, nil, outcome, false
	}
	c.deltaHits.Add(1)
	return res, blob, outcome, true
}

// recordedResult is the form a trace carries its recorded result in
// (core.Trace.Result): gob, which a delta hit decodes in a fraction of
// the time the result's JSON takes. gob sends an empty list or map no
// more than a nil one, which the JSON keeps apart, so bit i of Empty
// is set when collection i of collections(Result) was empty but not
// nil.
type recordedResult struct {
	Result Result
	Empty  uint8
}

// collection is one of a Result's lists or maps: whether it is empty
// but not nil, and how to make it so.
type collection struct {
	empty bool
	set   func()
}

// collections returns r's lists and maps in recordedResult.Empty's
// order.
func collections(r *Result) []collection {
	list := func(p *[]uint64) collection {
		return collection{*p != nil && len(*p) == 0, func() { *p = []uint64{} }}
	}
	return []collection{
		list(&r.FunctionStarts), list(&r.FDEStarts), list(&r.NewFromPointers),
		list(&r.NewFromTailCalls), list(&r.RemovedBogusFDEs),
		{r.MergedParts != nil && len(r.MergedParts) == 0, func() { r.MergedParts = map[uint64]uint64{} }},
		{r.Stats.Passes != nil && len(r.Stats.Passes) == 0, func() { r.Stats.Passes = []PassStat{} }},
	}
}

// recordResult returns the trace fields that carry res, whose stored
// encoding is blob; nil when blob is (nothing was stored).
func recordResult(res *Result, blob []byte) ([]byte, [sha256.Size]byte) {
	if blob == nil {
		return nil, [sha256.Size]byte{}
	}
	rr := recordedResult{Result: *res}
	for i, c := range collections(res) {
		if c.empty {
			rr.Empty |= 1 << i
		}
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(&rr); err != nil {
		return nil, [sha256.Size]byte{}
	}
	return buf.Bytes(), sha256.Sum256(blob)
}

// servedResult returns the recorded result a delta hit serves, whose
// stored encoding is blob: the trace's own copy while blob is the
// encoding the copy was recorded with, else the decoding of blob (a
// later run of the same binary may have stored it again).
func servedResult(tr *core.Trace, blob []byte) (*Result, bool) {
	if tr.Result != nil && sha256.Sum256(blob) == tr.ResultSHA {
		var rr recordedResult
		if gob.NewDecoder(bytes.NewReader(tr.Result)).Decode(&rr) == nil {
			for i, c := range collections(&rr.Result) {
				if rr.Empty&(1<<i) != 0 {
					c.set()
				}
			}
			return &rr.Result, true
		}
	}
	res, err := DecodeResult(blob)
	return res, err == nil
}
