package fetch

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files under testdata/")

// codecSample produces a deterministic analyzed Result: a generated
// binary with every correction class populated, wall times zeroed
// (the single non-deterministic field family).
func codecSample(t testing.TB) *Result {
	t.Helper()
	raw, _, err := GenerateSample(SampleConfig{Seed: 42, NumFuncs: 120, Stripped: true})
	if err != nil {
		t.Fatal(err)
	}
	res, err := Analyze(raw)
	if err != nil {
		t.Fatal(err)
	}
	for i := range res.Stats.Passes {
		res.Stats.Passes[i].Wall = 0
	}
	return res
}

func TestCodecRoundTripExact(t *testing.T) {
	res := codecSample(t)
	blob, err := EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeResult(blob)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(res, back) {
		t.Fatalf("round trip not exact:\n got %+v\nwant %+v", back, res)
	}
	// Determinism: encoding the decoded copy reproduces the bytes.
	blob2, err := EncodeResult(back)
	if err != nil {
		t.Fatal(err)
	}
	if string(blob) != string(blob2) {
		t.Fatal("re-encoding is not byte-identical")
	}
}

// TestCodecRoundTripPreservesNilVersusEmpty pins the subtlest part of
// the exactness contract: null and [] are different values.
func TestCodecRoundTripPreservesNilVersusEmpty(t *testing.T) {
	cases := []*Result{
		{}, // all nil
		{
			FunctionStarts: []uint64{},
			MergedParts:    map[uint64]uint64{},
			Stats:          Stats{Passes: []PassStat{}},
		},
		{
			FunctionStarts: []uint64{0x401000, 1<<64 - 1},
			MergedParts:    map[uint64]uint64{0x1000: 0x2000, 1<<63 + 5: 7},
			Stats: Stats{
				Passes:        []PassStat{{Name: "fde", Wall: 123 * time.Microsecond}},
				XrefConverged: true,
			},
		},
	}
	for i, res := range cases {
		blob, err := EncodeResult(res)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		back, err := DecodeResult(blob)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		if !reflect.DeepEqual(res, back) {
			t.Fatalf("case %d: round trip changed value:\n got %#v\nwant %#v", i, back, res)
		}
	}
}

func TestDecodeRejectsWrongSchemaAndUnknownFields(t *testing.T) {
	res := codecSample(t)
	blob, err := EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}

	schema := fmt.Sprintf(`"schema": %d`, ResultSchemaVersion)
	if !strings.Contains(string(blob), schema) {
		t.Fatalf("encoding lacks %s", schema)
	}

	wrongSchema := strings.Replace(string(blob), schema, `"schema": 999`, 1)
	if _, err := DecodeResult([]byte(wrongSchema)); err == nil ||
		!strings.Contains(err.Error(), "schema version") {
		t.Fatalf("wrong schema: %v", err)
	}

	unknown := strings.Replace(string(blob), schema, schema+`, "surprise": 1`, 1)
	if _, err := DecodeResult([]byte(unknown)); err == nil {
		t.Fatal("unknown field accepted")
	}
	// Stats decodes through its own tags: an unknown field inside it,
	// here the counter schema 6 dropped, is rejected as well.
	forks := strings.Replace(string(blob), `"probes":`, `"forks": 1, "probes":`, 1)
	if forks == string(blob) {
		t.Fatal("encoding lacks stats.probes")
	}
	if _, err := DecodeResult([]byte(forks)); err == nil {
		t.Fatal("unknown stats field accepted")
	}

	if _, err := DecodeResult([]byte("{")); err == nil {
		t.Fatal("truncated JSON accepted")
	}
	// Trailing data is rejected whichever layer sees it first (the
	// schema probe's strict Unmarshal or the post-decode EOF check).
	trailing := append(append([]byte(nil), blob...), "{"+schema+"}"...)
	if _, err := DecodeResult(trailing); err == nil {
		t.Fatal("concatenated documents accepted")
	}
	if _, err := DecodeResult([]byte("{" + schema + `, "fde_starts": ["zz"]}`)); err == nil ||
		!strings.Contains(err.Error(), "bad address") {
		t.Fatalf("malformed address: %v", err)
	}
}

// TestDecodeErrorsUnchangedByParseOnce pins the error DecodeResult
// reports now that a well-formed document is parsed once: a wrong
// schema still wins over an unknown field, and every malformed input
// reports what the schema probe followed by the strict decode reported
// before.
func TestDecodeErrorsUnchangedByParseOnce(t *testing.T) {
	blob, err := EncodeResult(codecSample(t))
	if err != nil {
		t.Fatal(err)
	}
	schema := fmt.Sprintf(`"schema": %d`, ResultSchemaVersion)
	both := strings.Replace(string(blob), schema, `"schema": 4, "surprise": 1`, 1)
	if _, err := DecodeResult([]byte(both)); err == nil ||
		err.Error() != fmt.Sprintf("fetch: result schema version 4, want %d", ResultSchemaVersion) {
		t.Fatalf("wrong schema and unknown field: %v", err)
	}

	// probeThenDecode is the two-parse decoder DecodeResult replaced.
	probeThenDecode := func(data []byte) error {
		var probe struct {
			Schema int `json:"schema"`
		}
		if err := json.Unmarshal(data, &probe); err != nil {
			return fmt.Errorf("fetch: decoding result: %w", err)
		}
		if probe.Schema != ResultSchemaVersion {
			return fmt.Errorf("fetch: result schema version %d, want %d", probe.Schema, ResultSchemaVersion)
		}
		var jr jsonResult
		return decodeStrict(data, &jr)
	}
	for _, in := range []string{
		"", "{", "[]", "null", `{"schema": "5"}`, both,
		strings.Replace(string(blob), schema, schema+`, "surprise": 1`, 1),
		string(blob) + "{" + schema + "}",
		string(blob) + "}",
		"{" + schema + `, "fde_starts": ["zz"]}`,
		"{" + schema + `, "stats": {"passes": 3}}`,
	} {
		_, got := DecodeResult([]byte(in))
		want := probeThenDecode([]byte(in))
		if got == nil || want == nil || got.Error() != want.Error() {
			t.Errorf("DecodeResult(%.40q) error %v, want %v", in, got, want)
		}
	}
}

// TestCodecGolden pins the serialized schema byte-for-byte: any codec
// change that alters the wire form fails here and must come with a
// ResultSchemaVersion bump plus a docs/API.md update. Refresh with
// go test -run TestCodecGolden -update ./...
func TestCodecGolden(t *testing.T) {
	res := codecSample(t)
	blob, err := EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "result_v6.golden.json")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, blob, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if string(blob) != string(want) {
		t.Fatalf("encoding drifted from %s; if intentional, bump ResultSchemaVersion, update docs/API.md, and refresh with -update", golden)
	}
	back, err := DecodeResult(want)
	if err != nil {
		t.Fatalf("golden does not decode: %v", err)
	}
	if !reflect.DeepEqual(res, back) {
		t.Fatal("golden decodes to a different result")
	}
}

// TestSummaryNamesMatchSchema enforces the no-drift contract between
// the CLI's formatting helper and the JSON codec: every non-derived
// SummaryLine name must resolve to a path in the encoded document.
func TestSummaryNamesMatchSchema(t *testing.T) {
	res := codecSample(t)
	blob, err := EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]any
	if err := json.Unmarshal(blob, &doc); err != nil {
		t.Fatal(err)
	}
	resolve := func(path string) bool {
		cur := any(doc)
		for _, seg := range strings.Split(path, ".") {
			switch node := cur.(type) {
			case map[string]any:
				next, ok := node[seg]
				if !ok {
					return false
				}
				cur = next
			case []any:
				// A segment under an array names an element by its
				// "name" field (the passes list).
				var found any
				for _, el := range node {
					if m, ok := el.(map[string]any); ok && m["name"] == seg {
						found = m
						break
					}
				}
				if found == nil {
					return false
				}
				cur = found
			default:
				return false
			}
		}
		return true
	}
	for _, line := range Summarize(res, true) {
		if strings.HasPrefix(line.Name, "derived.") {
			continue
		}
		if !resolve(line.Name) {
			t.Errorf("summary line %q has no corresponding schema path", line.Name)
		}
	}
}
