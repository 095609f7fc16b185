package fetch

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"time"
)

// ResultSchemaVersion is the version of the serialized Result schema
// produced by EncodeResult and accepted by DecodeResult. It is bumped
// on any change to field names, types, units, or semantics; older
// encodings are rejected rather than silently reinterpreted, and the
// result cache keys on it so a schema bump invalidates every stored
// entry at once. The schema is documented field by field in
// docs/API.md.
//
// Version 2 added the xref-truncation flag (stats.truncated) and the
// intra-binary sharding trace (stats.jobs, stats.sharded_passes,
// stats.shard_fallbacks, stats.merge_wall_ns, stats.shards).
//
// Version 3 added the function-granular delta re-analysis trace
// (stats.delta_path, stats.delta_dirty_ranges, stats.delta_total_ranges,
// stats.delta_fallback_reason).
//
// Version 4 added the memory accounting of the file-backed image path
// (stats.peak_image_bytes, stats.peak_aux_bytes).
//
// Version 5 removed the intra-binary sharding trace (stats.jobs,
// stats.sharded_passes, stats.shard_fallbacks, stats.merge_wall_ns,
// stats.shards).
const ResultSchemaVersion = 5

// hexAddr serializes a code address as a 0x-prefixed hex string. JSON
// numbers are IEEE-754 doubles in most consumers, which silently
// corrupt addresses above 2^53; strings keep the full 64 bits and read
// naturally in a binary-analysis API.
type hexAddr uint64

// MarshalText renders the address as 0x-prefixed lower-case hex.
func (h hexAddr) MarshalText() ([]byte, error) {
	return []byte(fmt.Sprintf("%#x", uint64(h))), nil
}

// UnmarshalText accepts any base strconv.ParseUint(s, 0, 64) does,
// canonically the 0x form MarshalText emits.
func (h *hexAddr) UnmarshalText(b []byte) error {
	v, err := strconv.ParseUint(string(b), 0, 64)
	if err != nil {
		return fmt.Errorf("fetch: bad address %q: %w", b, err)
	}
	*h = hexAddr(v)
	return nil
}

// jsonResult is the wire form of Result. Field names are the canonical
// schema vocabulary shared by the JSON codec, the Summarize helper the
// CLI prints through, and docs/API.md. No field uses omitempty: a nil
// slice encodes as null and an empty one as [], so decoding restores
// the exact value and round trips are reflect.DeepEqual-exact.
type jsonResult struct {
	Schema               int                 `json:"schema"`
	FunctionStarts       []hexAddr           `json:"function_starts"`
	FDEStarts            []hexAddr           `json:"fde_starts"`
	NewFromPointers      []hexAddr           `json:"new_from_pointers"`
	NewFromTailCalls     []hexAddr           `json:"new_from_tail_calls"`
	MergedParts          map[hexAddr]hexAddr `json:"merged_parts"`
	RemovedBogusFDEs     []hexAddr           `json:"removed_bogus_fdes"`
	SkippedIncompleteCFI int                 `json:"skipped_incomplete_cfi"`
	Stats                jsonStats           `json:"stats"`
}

// jsonStats is the wire form of Stats. Durations are integer
// nanoseconds (the _ns suffix is the unit contract).
type jsonStats struct {
	Passes         []jsonPass `json:"passes"`
	InstsDecoded   int64      `json:"insts_decoded"`
	InstsReused    int64      `json:"insts_reused"`
	ColdStarts     int        `json:"cold_starts"`
	Extends        int        `json:"extends"`
	Retracts       int        `json:"retracts"`
	Forks          int        `json:"forks"`
	Probes         int        `json:"probes"`
	XrefIterations int        `json:"xref_iterations"`
	XrefConverged  bool       `json:"xref_converged"`
	Truncated      bool       `json:"truncated"`

	DeltaPath           bool   `json:"delta_path"`
	DeltaDirtyRanges    int    `json:"delta_dirty_ranges"`
	DeltaTotalRanges    int    `json:"delta_total_ranges"`
	DeltaFallbackReason string `json:"delta_fallback_reason"`

	PeakImageBytes int64 `json:"peak_image_bytes"`
	PeakAuxBytes   int64 `json:"peak_aux_bytes"`
}

// jsonPass is the wire form of PassStat.
type jsonPass struct {
	Name   string `json:"name"`
	WallNS int64  `json:"wall_ns"`
}

func toHexSlice(in []uint64) []hexAddr {
	if in == nil {
		return nil
	}
	out := make([]hexAddr, len(in))
	for i, v := range in {
		out[i] = hexAddr(v)
	}
	return out
}

func fromHexSlice(in []hexAddr) []uint64 {
	if in == nil {
		return nil
	}
	out := make([]uint64, len(in))
	for i, v := range in {
		out[i] = uint64(v)
	}
	return out
}

// EncodeResult serializes a Result into the stable, versioned JSON
// schema documented in docs/API.md. The encoding is deterministic
// (sorted map keys, fixed field order) and DecodeResult restores a
// Result reflect.DeepEqual-equal to the input, including nil-versus-
// empty slice distinctions.
func EncodeResult(res *Result) ([]byte, error) {
	jr := jsonResult{
		Schema:               ResultSchemaVersion,
		FunctionStarts:       toHexSlice(res.FunctionStarts),
		FDEStarts:            toHexSlice(res.FDEStarts),
		NewFromPointers:      toHexSlice(res.NewFromPointers),
		NewFromTailCalls:     toHexSlice(res.NewFromTailCalls),
		RemovedBogusFDEs:     toHexSlice(res.RemovedBogusFDEs),
		SkippedIncompleteCFI: res.SkippedIncompleteCFI,
		Stats: jsonStats{
			InstsDecoded:   res.Stats.InstsDecoded,
			InstsReused:    res.Stats.InstsReused,
			ColdStarts:     res.Stats.ColdStarts,
			Extends:        res.Stats.Extends,
			Retracts:       res.Stats.Retracts,
			Forks:          res.Stats.Forks,
			Probes:         res.Stats.Probes,
			XrefIterations: res.Stats.XrefIterations,
			XrefConverged:  res.Stats.XrefConverged,
			Truncated:      res.Stats.Truncated,

			DeltaPath:           res.Stats.DeltaPath,
			DeltaDirtyRanges:    res.Stats.DeltaDirtyRanges,
			DeltaTotalRanges:    res.Stats.DeltaTotalRanges,
			DeltaFallbackReason: res.Stats.DeltaFallbackReason,

			PeakImageBytes: res.Stats.PeakImageBytes,
			PeakAuxBytes:   res.Stats.PeakAuxBytes,
		},
	}
	if res.MergedParts != nil {
		jr.MergedParts = make(map[hexAddr]hexAddr, len(res.MergedParts))
		for part, owner := range res.MergedParts {
			jr.MergedParts[hexAddr(part)] = hexAddr(owner)
		}
	}
	if res.Stats.Passes != nil {
		jr.Stats.Passes = make([]jsonPass, len(res.Stats.Passes))
		for i, ps := range res.Stats.Passes {
			jr.Stats.Passes[i] = jsonPass{Name: ps.Name, WallNS: int64(ps.Wall)}
		}
	}
	data, err := json.MarshalIndent(jr, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("fetch: encoding result: %w", err)
	}
	return append(data, '\n'), nil
}

// DecodeResult parses an EncodeResult payload. It is strict: unknown
// fields and unknown schema versions are errors, never silently
// dropped, so a consumer cannot misread an encoding produced by a
// different codec version.
//
// A well-formed document is parsed once. Only a failed or
// wrong-schema decode pays a second, lenient parse, which finds the
// error to report: a syntax error first, then a schema mismatch, and
// only then whatever the strict decode rejected.
func DecodeResult(data []byte) (*Result, error) {
	var jr jsonResult
	err := decodeStrict(data, &jr)
	if err != nil || jr.Schema != ResultSchemaVersion {
		var probe struct {
			Schema int `json:"schema"`
		}
		if perr := json.Unmarshal(data, &probe); perr != nil {
			return nil, fmt.Errorf("fetch: decoding result: %w", perr)
		}
		if probe.Schema != ResultSchemaVersion {
			return nil, fmt.Errorf("fetch: result schema version %d, want %d",
				probe.Schema, ResultSchemaVersion)
		}
		return nil, err
	}
	res := &Result{
		FunctionStarts:       fromHexSlice(jr.FunctionStarts),
		FDEStarts:            fromHexSlice(jr.FDEStarts),
		NewFromPointers:      fromHexSlice(jr.NewFromPointers),
		NewFromTailCalls:     fromHexSlice(jr.NewFromTailCalls),
		RemovedBogusFDEs:     fromHexSlice(jr.RemovedBogusFDEs),
		SkippedIncompleteCFI: jr.SkippedIncompleteCFI,
		Stats: Stats{
			InstsDecoded:   jr.Stats.InstsDecoded,
			InstsReused:    jr.Stats.InstsReused,
			ColdStarts:     jr.Stats.ColdStarts,
			Extends:        jr.Stats.Extends,
			Retracts:       jr.Stats.Retracts,
			Forks:          jr.Stats.Forks,
			Probes:         jr.Stats.Probes,
			XrefIterations: jr.Stats.XrefIterations,
			XrefConverged:  jr.Stats.XrefConverged,
			Truncated:      jr.Stats.Truncated,

			DeltaPath:           jr.Stats.DeltaPath,
			DeltaDirtyRanges:    jr.Stats.DeltaDirtyRanges,
			DeltaTotalRanges:    jr.Stats.DeltaTotalRanges,
			DeltaFallbackReason: jr.Stats.DeltaFallbackReason,

			PeakImageBytes: jr.Stats.PeakImageBytes,
			PeakAuxBytes:   jr.Stats.PeakAuxBytes,
		},
	}
	if jr.MergedParts != nil {
		res.MergedParts = make(map[uint64]uint64, len(jr.MergedParts))
		for part, owner := range jr.MergedParts {
			res.MergedParts[uint64(part)] = uint64(owner)
		}
	}
	if jr.Stats.Passes != nil {
		res.Stats.Passes = make([]PassStat, len(jr.Stats.Passes))
		for i, ps := range jr.Stats.Passes {
			res.Stats.Passes[i] = PassStat{Name: ps.Name, Wall: time.Duration(ps.WallNS)}
		}
	}
	return res, nil
}

// decodeStrict decodes exactly one jsonResult document from data,
// rejecting unknown fields and trailing data.
func decodeStrict(data []byte, jr *jsonResult) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(jr); err != nil {
		return fmt.Errorf("fetch: decoding result: %w", err)
	}
	var extra json.RawMessage
	if err := dec.Decode(&extra); err != io.EOF {
		return fmt.Errorf("fetch: trailing data after result document")
	}
	return nil
}
