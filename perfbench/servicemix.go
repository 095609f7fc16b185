package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"fetch"
	"fetch/internal/metrics"
	"fetch/internal/service"
	"fetch/internal/synth"
)

// The service-mix traffic. Each round starts a fresh service and cache,
// warms the base pool (the round's set-up), then replays one seeded
// request sequence over mixConnections closed-loop connections. A fresh
// cache per round keeps every round's mix the same: the recompiled
// versions are new to each round's delta tier and the never-seen
// binaries miss in each round.
//
// Each of the corpus's 22 projects gives one base and one never-seen
// binary, two of its compiler × optimization × ISA builds. Per base a round sends 20
// hits, 5 by-hash lookups, 2 recompiled versions and 1 miss: 440, 110,
// 44 and 22 requests, about 71/18/7/4%. These shares are an assumption,
// not a measured access log: a re-analysis service mostly sees the same
// build artifacts again, so hits dominate; a by-hash lookup is the
// cheaper form of the same re-query; recompiles are rarer; and
// never-seen binaries are a small share that still gives miss_ms_p50
// hundreds of samples per run.
const (
	mixHitsPerBase   = 20 // re-uploads of binaries the round has seen
	mixByHashPerBase = 5  // {"sha256"} lookups of binaries the round has seen
	mixVersions      = 2  // recompiled versions per base, each first served by the delta tier
	// mixConnections is the closed-loop clients, one per CPU of the
	// reference host, and the service's analysis slots, its default on
	// that host. No request waits for a slot, so the queue wait reads 0
	// unless a change makes requests queue; with a single slot the waits
	// behind cold misses made the hit and delta tails too unsteady.
	mixConnections = 2
)

type reqKind int

const (
	kindHit reqKind = iota
	kindByHash
	kindDelta
	kindMiss
	kindWarm
	numKinds
)

var kindNames = [numKinds]string{"hit", "by-hash", "delta", "miss", "warm"}

// request is one entry of the seeded sequence.
type request struct {
	kind reqKind
	bin  int
}

// mix is the service-mix input: every binary the traffic touches and
// the request sequence each round replays.
type mix struct {
	bins     []*binary
	bases    []int
	versions []int
	fresh    []int
	seq      []request
	// funcs counts the true functions of every binary, for cache sizing.
	funcs int
}

func buildMix(e *env) (*mix, error) {
	dir := filepath.Join(e.tmp, "mix")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	var projects []string
	builds := map[string][]synth.Config{}
	for _, s := range corpusSpecs(corpusScale, e.opts.seed) {
		if builds[s.Project] == nil {
			projects = append(projects, s.Project)
		}
		builds[s.Project] = append(builds[s.Project], s.Config)
	}
	m := &mix{}
	add := func(b *binary) int {
		m.bins = append(m.bins, b)
		m.funcs += len(b.truth.Funcs)
		return len(m.bins) - 1
	}
	for j, p := range projects {
		cfgs := builds[p]
		if len(cfgs) < 2 {
			return nil, fmt.Errorf("project %s has %d builds, the mix needs 2", p, len(cfgs))
		}
		// The same two builds of a project on every seed, rotating
		// through the build configurations across projects: the seed
		// varies the code and the request order, not the mix of sizes.
		base, fresh := cfgs[j%len(cfgs)], cfgs[(j+len(cfgs)/2)%len(cfgs)]
		b, err := genBinary(base, dir)
		if err != nil {
			return nil, err
		}
		m.bases = append(m.bases, add(b))
		for v := 1; v <= mixVersions; v++ {
			vb, err := genVersion(base, b, v, dir)
			if err != nil {
				return nil, err
			}
			m.versions = append(m.versions, add(vb))
		}
		if b, err = genBinary(fresh, dir); err != nil {
			return nil, err
		}
		m.fresh = append(m.fresh, add(b))
	}
	m.seq = buildSequence(m, rand.New(rand.NewSource(e.opts.seed)))
	return m, nil
}

// genVersion builds the v-th recompiled version of a base: about 1% of
// its functions rewritten in place (PerturbK, as in
// BenchmarkDeltaReanalysis). A perturbation seed that finds too few
// rewritable functions, or whose version the delta tier would not serve
// after the base, gives way to the next one: the delta requests must
// time delta replay, not the cold fallback.
func genVersion(base synth.Config, baseBin *binary, v int, dir string) (*binary, error) {
	cfg := base
	cfg.Name = fmt.Sprintf("%s-v%d", base.Name, v)
	cfg.PerturbK = max(1, base.NumFuncs/100)
	var err error
	for try := 0; try < 16; try++ {
		cfg.PerturbSeed = base.Seed*131 + int64(v*16+try)
		var b *binary
		if b, err = genBinary(cfg, dir); err != nil {
			continue
		}
		if err = deltaServes(baseBin, b); err == nil {
			return b, nil
		}
	}
	return nil, err
}

// deltaServes checks that a cache holding only base serves version by
// the delta tier.
func deltaServes(base, version *binary) error {
	cache, err := fetch.NewCache(fetch.CacheConfig{})
	if err != nil {
		return err
	}
	if _, _, err := cache.Analyze(base.data); err != nil {
		return err
	}
	res, _, err := cache.Analyze(version.data)
	if err != nil {
		return err
	}
	if !res.Stats.DeltaPath {
		return fmt.Errorf("%s: the delta tier falls back (%s)", version.name, res.Stats.DeltaFallbackReason)
	}
	return nil
}

// buildSequence shuffles the request kinds and assigns binaries: each
// recompiled version and never-seen binary once, under its own kind,
// and hits and by-hash lookups drawn from what the sequence has sent.
func buildSequence(m *mix, rng *rand.Rand) []request {
	var kinds []reqKind
	for _, kn := range []struct {
		k reqKind
		n int
	}{{kindDelta, len(m.versions)}, {kindMiss, len(m.fresh)}, {kindHit, mixHitsPerBase * len(m.bases)}, {kindByHash, mixByHashPerBase * len(m.bases)}} {
		for i := 0; i < kn.n; i++ {
			kinds = append(kinds, kn.k)
		}
	}
	rng.Shuffle(len(kinds), func(i, j int) { kinds[i], kinds[j] = kinds[j], kinds[i] })
	versions := shuffled(rng, m.versions)
	fresh := shuffled(rng, m.fresh)
	seen := append([]int(nil), m.bases...)
	seq := make([]request, 0, len(kinds))
	for _, k := range kinds {
		var b int
		switch k {
		case kindDelta:
			b, versions = versions[0], versions[1:]
			seen = append(seen, b)
		case kindMiss:
			b, fresh = fresh[0], fresh[1:]
			seen = append(seen, b)
		default:
			b = seen[rng.Intn(len(seen))]
		}
		seq = append(seq, request{kind: k, bin: b})
	}
	return seq
}

func shuffled(rng *rand.Rand, xs []int) []int {
	out := append([]int(nil), xs...)
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// round is what one round of traffic measured.
type round struct {
	setupS    float64
	lat       [numKinds][]float64
	text      float64 // executable bytes of the binaries whose results came back
	reqs      int
	wall      float64 // seconds the request phase took
	allocB    float64
	attempted int64
	failed    int64
	firstErr  string
	bodies    map[bodyKey]*body
	// Traced runs only.
	cache fetch.CacheStats
	svc   service.StatsResponse
	// queueWaitS and queueWaitN are the queue-wait histogram's sum (in
	// seconds) and count, from /metrics.
	queueWaitS, queueWaitN float64
}

// bodyKey identifies one distinct response: the binary asked about, the
// kind of request, and the digest of the bytes that came back.
type bodyKey struct {
	bin  int
	kind reqKind
	sum  [sha256.Size]byte
}

type body struct {
	raw []byte
	n   int64
}

func (rd *round) record(q request, b *binary, raw []byte, sum [sha256.Size]byte, d time.Duration, err error) {
	rd.attempted++
	if err != nil {
		rd.failed++
		if rd.firstErr == "" {
			rd.firstErr = fmt.Sprintf("%s %s: %v", kindNames[q.kind], b.name, err)
		}
		return
	}
	if q.kind != kindWarm {
		rd.lat[q.kind] = append(rd.lat[q.kind], ms(d))
		rd.text += float64(b.textBytes)
		rd.reqs++
	}
	k := bodyKey{bin: q.bin, kind: q.kind, sum: sum}
	if bd := rd.bodies[k]; bd != nil {
		bd.n++
	} else {
		rd.bodies[k] = &body{raw: raw, n: 1}
	}
}

// runRound serves one round: a fresh cache and service on a loopback
// listener, the warm-up of the base pool, and the request sequence.
func runRound(e *env, m *mix, ac *allocCounter) (*round, error) {
	rd := &round{bodies: map[bodyKey]*body{}}
	t0 := time.Now()
	spool := filepath.Join(e.tmp, "spool")
	if err := os.MkdirAll(spool, 0o755); err != nil {
		return nil, err
	}
	// Three entries per function keep fn-tier eviction from masking
	// delta replay (the sizing rule of BenchmarkDeltaReanalysis).
	cache, err := fetch.NewCache(fetch.CacheConfig{MaxEntries: 3 * (m.funcs + len(m.bins))})
	if err != nil {
		return nil, err
	}
	svc, err := service.New(service.Config{Cache: cache, MaxInFlight: mixConnections, SpoolDir: spool})
	if err != nil {
		return nil, err
	}
	defer svc.Close()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	hs := &http.Server{Handler: svc.Handler()}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
		<-served
	}()
	tr := &http.Transport{MaxIdleConnsPerHost: mixConnections, MaxConnsPerHost: mixConnections, DisableCompression: true}
	defer tr.CloseIdleConnections()
	c := &client{hc: &http.Client{Transport: tr}, base: "http://" + ln.Addr().String(), m: m}

	done := make([]chan struct{}, len(m.bins))
	for i := range done {
		done[i] = make(chan struct{})
	}
	warm := make([]request, len(m.bases))
	for i, b := range m.bases {
		warm[i] = request{kind: kindWarm, bin: b}
	}
	c.drive(warm, done, rd)
	rd.setupS = time.Since(t0).Seconds()

	a0, _ := ac.read()
	r0 := time.Now()
	c.drive(m.seq, done, rd)
	rd.wall = time.Since(r0).Seconds()
	a1, _ := ac.read()
	rd.allocB = float64(a1 - a0)

	if e.opts.trace {
		rd.cache, rd.svc = cache.Stats(), svc.Stats()
		if rd.queueWaitS, rd.queueWaitN, err = c.queueWait(); err != nil {
			return nil, err
		}
	}
	return rd, nil
}

// client drives one round's traffic.
type client struct {
	hc   *http.Client
	base string
	m    *mix
}

// drive sends reqs in order over mixConnections closed-loop workers. A
// request about a binary that an earlier request sends first waits
// until that first request has completed, so every kind reaches the
// tier it is meant for.
func (c *client) drive(reqs []request, done []chan struct{}, rd *round) {
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < mixConnections; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) {
					return
				}
				q := reqs[i]
				b := c.m.bins[q.bin]
				first := q.kind == kindDelta || q.kind == kindMiss || q.kind == kindWarm
				if !first {
					<-done[q.bin]
				}
				t0 := time.Now()
				raw, err := c.send(b, q.kind == kindByHash)
				d := time.Since(t0)
				if first {
					close(done[q.bin])
				}
				sum := sha256.Sum256(raw)
				mu.Lock()
				rd.record(q, b, raw, sum, d, err)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
}

// send posts one request and returns the body of a 200 response.
func (c *client) send(b *binary, byHash bool) ([]byte, error) {
	ctype, payload := "application/octet-stream", b.data
	if byHash {
		ctype, payload = "application/json", []byte(`{"sha256":"`+hex.EncodeToString(b.sum[:])+`"}`)
	}
	resp, err := c.hc.Post(c.base+"/v1/analyze", ctype, bytes.NewReader(payload))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(raw))
	}
	return raw, nil
}

// queueWait reads the admission queue-wait histogram's sum (seconds)
// and count from /metrics. Its smallest bucket is 1 ms, so a median
// interpolated from the buckets reads 0.5 ms whenever most waits are
// shorter, however short they are; the sum is measured to the
// nanosecond.
func (c *client) queueWait() (sumS, count float64, err error) {
	resp, err := c.hc.Get(c.base + "/metrics")
	if err != nil {
		return 0, 0, err
	}
	defer resp.Body.Close()
	return histogramSumCount(resp.Body, "fetchd_queue_wait_seconds")
}

// histogramSumCount reads the _sum and _count samples of a Prometheus
// histogram family.
func histogramSumCount(r io.Reader, family string) (sumS, count float64, err error) {
	found := 0
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		var dst *float64
		switch {
		case !ok:
			continue
		case name == family+"_sum":
			dst = &sumS
		case name == family+"_count":
			dst = &count
		default:
			continue
		}
		if *dst, err = strconv.ParseFloat(val, 64); err != nil {
			return 0, 0, err
		}
		found++
	}
	if err := sc.Err(); err != nil {
		return 0, 0, err
	}
	if found != 2 {
		return 0, 0, fmt.Errorf("/metrics has no %s_sum and _count", family)
	}
	return sumS, count, nil
}

// verifier compares responses with cold analyses of the same bytes.
type verifier struct {
	m   *mix
	ref map[int][]byte // codec bytes of StripSchedule(cold fetch.Analyze)
	res map[int]*fetch.Result
	// deltaServed counts delta requests the delta tier served; dirty
	// and total sum their changed and roster ranges.
	deltaServed  int64
	dirty, total int
}

func newVerifier(m *mix) *verifier {
	return &verifier{m: m, ref: map[int][]byte{}, res: map[int]*fetch.Result{}}
}

func (v *verifier) reference(bin int) ([]byte, error) {
	if r, ok := v.ref[bin]; ok {
		return r, nil
	}
	res, err := fetch.Analyze(v.m.bins[bin].data)
	if err != nil {
		return nil, fmt.Errorf("cold analysis of %s: %w", v.m.bins[bin].name, err)
	}
	enc, err := fetch.EncodeResult(fetch.StripSchedule(res))
	if err != nil {
		return nil, err
	}
	v.ref[bin], v.res[bin] = enc, res
	return enc, nil
}

// check verifies one distinct response body, which n requests received.
// A delta request must also have been served by the delta tier, or
// delta_ms_* would time cold misses.
func (v *verifier) check(k bodyKey, raw []byte, n int64) error {
	var resp struct {
		SHA256 string          `json:"sha256"`
		Cached bool            `json:"cached"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(raw, &resp); err != nil {
		return err
	}
	b := v.m.bins[k.bin]
	if want := hex.EncodeToString(b.sum[:]); resp.SHA256 != want {
		return fmt.Errorf("%s: response names %s", b.name, resp.SHA256)
	}
	res, err := fetch.DecodeResult(resp.Result)
	if err != nil {
		return fmt.Errorf("%s: %w", b.name, err)
	}
	if k.kind == kindDelta {
		if !res.Stats.DeltaPath {
			return fmt.Errorf("%s: delta request not served by the delta tier (%s)", b.name, res.Stats.DeltaFallbackReason)
		}
		v.deltaServed += n
		v.dirty += res.Stats.DeltaDirtyRanges
		v.total += res.Stats.DeltaTotalRanges
	}
	got, err := fetch.EncodeResult(fetch.StripSchedule(res))
	if err != nil {
		return err
	}
	want, err := v.reference(k.bin)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return fmt.Errorf("%s: response differs from a cold analysis of the same bytes", b.name)
	}
	return nil
}

func runServiceMix(e *env) (*result, error) {
	m, err := buildMix(e)
	if err != nil {
		return nil, err
	}
	if err := e.inputsReady(digest(m.bins)); err != nil {
		return nil, err
	}
	r := newResult(e)
	ac := newAllocCounter()
	v := newVerifier(m)
	gc0 := readGC()
	var hs *heapSampler
	if e.opts.trace {
		hs = startHeapSampler(10 * time.Millisecond)
	}
	var rounds []*round
	start := time.Now()
	for len(rounds) == 0 || time.Since(start) < e.opts.duration() {
		rd, err := runRound(e, m, ac)
		if err != nil {
			if hs != nil {
				hs.finish()
			}
			return nil, err
		}
		r.attempted += rd.attempted
		for i := int64(0); i < rd.failed; i++ {
			r.fail("%s", rd.firstErr)
		}
		for k, bd := range rd.bodies {
			if err := v.check(k, bd.raw, bd.n); err != nil {
				for i := int64(0); i < bd.n; i++ {
					r.fail("%v", err)
				}
			}
		}
		rounds = append(rounds, rd)
	}
	var heapPeak float64
	if hs != nil {
		heapPeak = hs.finish()
	}

	var score metrics.Eval
	for i, b := range m.bins {
		if _, err := v.reference(i); err != nil {
			return nil, err
		}
		ev := metrics.Evaluate(startSet(v.res[i].FunctionStarts), b.truth)
		score.TP, score.FP, score.FN = score.TP+ev.TP, score.FP+ev.FP, score.FN+ev.FN
	}

	var setup, all []float64
	var byKind [numKinds][]float64
	var text, wall, allocB float64
	reqs := 0
	for _, rd := range rounds {
		setup = append(setup, rd.setupS)
		for k := kindHit; k < kindWarm; k++ {
			byKind[k] = append(byKind[k], rd.lat[k]...)
			all = append(all, rd.lat[k]...)
		}
		text, wall, allocB, reqs = text+rd.text, wall+rd.wall, allocB+rd.allocB, reqs+rd.reqs
	}
	fmt.Fprintf(e.report, "# service-mix: %d rounds of %d requests, %d bases warmed per round, %d connections and analysis slots; %d of %d delta requests served by the delta tier\n",
		len(rounds), len(m.seq), len(m.bases), mixConnections, v.deltaServed, len(byKind[kindDelta]))
	for k := kindHit; k < kindWarm; k++ {
		p90, ok90 := tail(byKind[k], 0.9)
		p99, ok99 := tail(byKind[k], 0.99)
		fmt.Fprintf(e.report, "#   %-8s %6d samples  p50 %8.3f ms  p90 %8.3f ms%s  p99 %8.3f ms%s\n",
			kindNames[k], len(byKind[k]), median(byKind[k]), p90, medianNote(ok90), p99, medianNote(ok99))
	}
	fmt.Fprintf(e.report, "# FETCH precision %.4f recall %.4f over the %d binaries of the mix (TP %d, FP %d, FN %d)\n",
		score.Precision(), score.Recall(), len(m.bins), score.TP, score.FP, score.FN)

	if e.opts.trace {
		return r, traceMix(e, r, m, v, rounds, gc0, heapPeak, ac)
	}
	mt := r.metrics
	mt["setup_s"] = median(setup)
	mt["analyze_ms_p50"] = median(all)
	mt["analyze_ms_p90"], _ = tail(all, 0.9)
	mt["text_mb_per_s"] = text / mib / wall
	mt["alloc_mb_per_binary"] = allocB / mib / float64(reqs)
	mt["peak_rss_mb"] = peakRSSMB()
	mt["precision"], mt["recall"] = score.Precision(), score.Recall()
	mt["req_per_s"] = float64(reqs) / wall
	mt["hit_ms_p50"] = median(byKind[kindHit])
	// The hits' p99 is only printed: set by scheduling and GC stalls of a
	// sub-millisecond request, it spread too widely from run to run to
	// hold a regression bound.
	mt["hit_ms_p90"], _ = tail(byKind[kindHit], 0.9)
	mt["delta_ms_p50"] = median(byKind[kindDelta])
	mt["delta_ms_p90"], _ = tail(byKind[kindDelta], 0.9)
	mt["miss_ms_p50"] = median(byKind[kindMiss])
	return r, nil
}

// traceMix fills the per-layer metrics of a traced service-mix run: the
// cache, codec, and service figures the rounds recorded, and the
// analysis layers from a traced replay of every binary of the mix,
// each checked against an untraced fetch.AnalyzeFile of the same file
// timed just before it, as on the analysis workloads.
func traceMix(e *env, r *result, m *mix, v *verifier, rounds []*round, gc0 gcSnapshot, heapPeak float64, ac *allocCounter) error {
	tr, agg := newTracer(), newTraceAgg()
	for i, b := range m.bins {
		r.attempted++
		t0 := time.Now()
		lib, err := fetch.AnalyzeFile(b.path)
		libMS := ms(time.Since(t0))
		if err != nil {
			r.fail("%s: %v", b.name, err)
			continue
		}
		if _, err := agg.traceBinary(tr, ac, i, b, lib, libMS); err != nil {
			r.fail("%v", err)
		}
	}
	if err := agg.fill(r.metrics); err != nil {
		return err
	}
	r.spans = tr.spans
	runtimeMetrics(r.metrics, gc0, heapPeak)

	var cs fetch.CacheStats
	var rejected, peak, waitS, waitN float64
	for _, rd := range rounds {
		c := rd.cache
		cs.Hits += c.Hits
		cs.Misses += c.Misses
		cs.Puts += c.Puts
		cs.Evictions += c.Evictions
		cs.ManifestHits += c.ManifestHits
		cs.ManifestMisses += c.ManifestMisses
		cs.FnTierHits += c.FnTierHits
		cs.FnTierMisses += c.FnTierMisses
		cs.DeltaHits += c.DeltaHits
		cs.DeltaFallbacks += c.DeltaFallbacks
		rejected += float64(rd.svc.Analyze.QueueRejected)
		peak = max(peak, float64(rd.svc.PeakInFlight))
		waitS, waitN = waitS+rd.queueWaitS, waitN+rd.queueWaitN
	}
	n := float64(len(rounds))
	resultHits := float64(cs.Hits - cs.ManifestHits - cs.FnTierHits)
	resultMisses := float64(cs.Misses - cs.ManifestMisses - cs.FnTierMisses)
	mt := r.metrics
	mt["cache.hit_ratio"] = ratio(resultHits, resultHits+resultMisses)
	mt["cache.fn_tier_hit_ratio"] = ratio(float64(cs.FnTierHits), float64(cs.FnTierHits+cs.FnTierMisses))
	mt["cache.delta_hits"] = float64(cs.DeltaHits) / n
	mt["cache.delta_fallbacks"] = float64(cs.DeltaFallbacks) / n
	mt["cache.delta_dirty_ratio"] = ratio(float64(v.dirty), float64(v.total))
	mt["cache.puts"] = float64(cs.Puts) / n
	mt["cache.evictions"] = float64(cs.Evictions) / n
	mt["service.queue_wait_ms_mean"] = ratio(waitS*1e3, waitN)
	mt["service.rejected"] = rejected / n
	mt["service.peak_in_flight"] = peak
	fmt.Fprintf(e.report, "# cache per round: %.0f puts, %.0f evictions, %.1f delta hits, %.1f delta fallbacks; queue wait mean %.5f ms over %.0f admissions (from /metrics)\n",
		mt["cache.puts"], mt["cache.evictions"], mt["cache.delta_hits"], mt["cache.delta_fallbacks"], mt["service.queue_wait_ms_mean"], waitN)
	agg.reportOverhead(e.report)
	return nil
}
