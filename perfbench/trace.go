package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	rtm "runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer. IDs start at 1; Parent 0 marks a
// root span. Bin identifies the binary the span worked on, so the spans
// of one analysis share it.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Bin    int    `json:"bin"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s *span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; the run writes them out when it ends.
// It is used from one goroutine.
type tracer struct {
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its ID.
func (t *tracer) begin(name string, parent, bin int) int {
	t.spans = append(t.spans, span{
		ID: len(t.spans) + 1, Parent: parent, Name: name, Bin: bin,
		Start: int64(time.Since(t.epoch)),
	})
	return len(t.spans)
}

// end closes a span and returns its duration.
func (t *tracer) end(id int) time.Duration {
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.epoch))
	return s.dur()
}

// selfTimes returns, per span, its duration minus the part of that
// interval its child spans cover.
func selfTimes(spans []span) []time.Duration {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		iv := children[s.ID]
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered int64
		hi := s.Start
		for _, c := range iv {
			lo, end := max(c[0], hi), min(c[1], s.End)
			if end > lo {
				covered += end - lo
				hi = end
			}
		}
		out[i] = s.dur() - time.Duration(covered)
	}
	return out
}

// layerOf maps a span or metric name to its layer, the part before the
// first dot.
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// writeSelfTimeReport prints self time per layer and per span name.
func writeSelfTimeReport(w io.Writer, workload string, spans []span) {
	self := selfTimes(spans)
	type agg struct {
		n           int
		total, self time.Duration
	}
	byName, byLayer := map[string]*agg{}, map[string]*agg{}
	var all time.Duration
	for i, s := range spans {
		for _, kv := range []struct {
			m map[string]*agg
			k string
		}{{byName, s.Name}, {byLayer, layerOf(s.Name)}} {
			a := kv.m[kv.k]
			if a == nil {
				a = &agg{}
				kv.m[kv.k] = a
			}
			a.n++
			a.total += s.dur()
			a.self += self[i]
		}
		all += self[i]
	}
	table := func(title string, m map[string]*agg) {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return m[keys[i]].self > m[keys[j]].self })
		fmt.Fprintf(w, "# %s self time, workload %s (%d spans)\n", title, workload, len(spans))
		fmt.Fprintf(w, "#   %-22s %8s %12s %12s %7s\n", "name", "spans", "total_ms", "self_ms", "self")
		for _, k := range keys {
			a := m[k]
			fmt.Fprintf(w, "#   %-22s %8d %12.3f %12.3f %6.1f%%\n", k, a.n,
				ms(a.total), ms(a.self), 100*ratio(float64(a.self), float64(all)))
		}
	}
	table("per-layer", byLayer)
	table("per-span", byName)
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// heapSampler records the peak live heap while a traced run measures.
type heapSampler struct {
	stop chan struct{}
	done chan struct{}
	mu   sync.Mutex
	peak uint64
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []rtm.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(every)
		defer tick.Stop()
		for {
			rtm.Read(s)
			h.mu.Lock()
			h.peak = max(h.peak, s[0].Value.Uint64())
			h.mu.Unlock()
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler, waits for it, and returns the peak in MB.
func (h *heapSampler) finish() float64 {
	close(h.stop)
	<-h.done
	h.mu.Lock()
	defer h.mu.Unlock()
	return float64(h.peak) / mib
}
