package core

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"reflect"
	"testing"
)

// TestRosterGobRoundTrip round-trips a roster through its packed form,
// alone and inside a gob-encoded Trace, and rejects every truncation,
// trailing data, and a Foreign byte other than 0 or 1.
func TestRosterGobRoundTrip(t *testing.T) {
	roster := Roster{
		{Start: 0x401000, End: 0x401040, Foreign: true},
		{Start: 0x401040, End: 0x401041},
		{Start: 1 << 40, End: 1<<40 + 0x10000},
	}
	for i := range roster {
		for k := range roster[i].Hash {
			roster[i].Hash[k] = byte(17*i + k)
		}
	}
	blob, err := roster.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	var back Roster
	if err := back.GobDecode(blob); err != nil {
		t.Fatalf("valid roster rejected: %v", err)
	}
	if !reflect.DeepEqual(back, roster) {
		t.Fatalf("round trip = %+v, want %+v", back, roster)
	}

	tr := &Trace{BinSHA: [32]byte{1}, Roster: roster, Funcs: []uint64{0x401000}}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(tr); err != nil {
		t.Fatal(err)
	}
	var trBack Trace
	if err := gob.NewDecoder(&buf).Decode(&trBack); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(trBack.Roster, roster) || trBack.BinSHA != tr.BinSHA {
		t.Fatalf("trace round trip lost the roster: %+v", trBack.Roster)
	}

	var empty Roster
	if err := empty.GobDecode(mustEncode(t, Roster{})); err != nil || len(empty) != 0 {
		t.Fatalf("empty roster: %v, %d ranges", err, len(empty))
	}

	for n := 0; n < len(blob); n++ {
		var got Roster
		if err := got.GobDecode(blob[:n]); err == nil {
			t.Fatalf("roster truncated to %d of %d bytes accepted as %+v", n, len(blob), got)
		}
	}
	var got Roster
	if err := got.GobDecode(append(append([]byte(nil), blob...), 0)); err == nil {
		t.Fatal("roster with trailing data accepted")
	}
	bad := append([]byte(nil), blob...)
	// The first range's Foreign byte follows the count, its Start, and
	// its length.
	foreign := binary.AppendUvarint(binary.AppendUvarint(binary.AppendUvarint(nil, 3), 0x401000), 0x40)
	if bad[len(foreign)] != 1 {
		t.Fatalf("byte %d = %d, want the first range's Foreign flag", len(foreign), bad[len(foreign)])
	}
	bad[len(foreign)] = 2
	if err := got.GobDecode(bad); err == nil {
		t.Fatal("roster with Foreign byte 2 accepted")
	}
}

func mustEncode(t *testing.T, r Roster) []byte {
	t.Helper()
	b, err := r.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	return b
}
