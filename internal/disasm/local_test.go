package disasm

import (
	"encoding/binary"
	"reflect"
	"testing"
)

// TestInstFactsGobLengths round-trips every length the owner index
// can hold and rejects the ones it cannot: zero, and anything past
// maxOwnedInstLen — including lengths a uint16 would silently
// truncate.
func TestInstFactsGobLengths(t *testing.T) {
	facts := InstFacts{{Addr: 0x401000, Len: 1}, {Addr: 0x401001, Len: 15}, {Addr: 0x401100, Len: maxOwnedInstLen}}
	blob, err := facts.GobEncode()
	if err != nil {
		t.Fatal(err)
	}
	var back InstFacts
	if err := back.GobDecode(blob); err != nil {
		t.Fatalf("valid facts rejected: %v", err)
	}
	if !reflect.DeepEqual(back, facts) {
		t.Fatalf("round trip = %v, want %v", back, facts)
	}

	for _, l := range []uint64{0, 256, 70000} {
		// One fact at 0x401000 of length l, in the packed form.
		blob := binary.AppendUvarint(nil, 1)
		blob = binary.AppendUvarint(blob, 0x401000)
		blob = binary.AppendUvarint(blob, l)
		var got InstFacts
		if err := got.GobDecode(blob); err == nil {
			t.Errorf("length %d accepted as %v", l, got)
		}
	}
}
