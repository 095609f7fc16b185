package fetch

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
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
//
// Version 6 removed the session-fork counter (stats.forks): candidate
// validation probes the pipeline's one session directly.
const ResultSchemaVersion = 6

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

// jsonResult is the wire form of Result; Stats is its own wire form,
// through its JSON tags. Field names are the canonical schema
// vocabulary shared by the JSON codec, the Summarize helper the CLI
// prints through, and docs/API.md. No field uses omitempty: a nil
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
	Stats                Stats               `json:"stats"`
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
		Stats:                res.Stats,
	}
	if res.MergedParts != nil {
		jr.MergedParts = make(map[hexAddr]hexAddr, len(res.MergedParts))
		for part, owner := range res.MergedParts {
			jr.MergedParts[hexAddr(part)] = hexAddr(owner)
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
		Stats:                jr.Stats,
	}
	if jr.MergedParts != nil {
		res.MergedParts = make(map[uint64]uint64, len(jr.MergedParts))
		for part, owner := range jr.MergedParts {
			res.MergedParts[uint64(part)] = uint64(owner)
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
