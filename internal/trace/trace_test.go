package trace

import (
	"bytes"
	"strings"
	"testing"
	"testing/quick"

	"triplea/internal/simx"
	"triplea/internal/units"
)

func TestOpStringParse(t *testing.T) {
	if Read.String() != "R" || Write.String() != "W" {
		t.Error("Op.String mismatch")
	}
	for in, want := range map[string]Op{
		"R": Read, "r": Read, "READ": Read, "0": Read,
		"W": Write, "write": Write, "1": Write, " W ": Write,
	} {
		got, err := ParseOp(in)
		if err != nil || got != want {
			t.Errorf("ParseOp(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseOp("x"); err == nil {
		t.Error("ParseOp accepted garbage")
	}
}

func TestRequestValidate(t *testing.T) {
	good := Request{Arrival: 10, Op: Read, LPN: 5, Pages: 1}
	if err := good.Validate(); err != nil {
		t.Errorf("valid request rejected: %v", err)
	}
	for _, bad := range []Request{
		{Arrival: -1, Pages: 1},
		{LPN: -1, Pages: 1},
		{Pages: 0},
		{Op: Write + 1, Pages: 1},
		{Op: Op(7), Pages: 1},
	} {
		if bad.Validate() == nil {
			t.Errorf("invalid request %+v accepted", bad)
		}
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	in := []Request{
		{Arrival: 0, Op: Read, LPN: 42, Pages: 1},
		{Arrival: 1500, Op: Write, LPN: 7, Pages: 8},
		{Arrival: 2_000_000, Op: Read, LPN: 1 << 40, Pages: 2},
	}
	var buf bytes.Buffer
	if err := Encode(&buf, in); err != nil {
		t.Fatalf("Encode: %v", err)
	}
	out, err := Decode(&buf)
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip %d -> %d records", len(in), len(out))
	}
	for i := range in {
		if in[i] != out[i] {
			t.Errorf("record %d: %+v != %+v", i, in[i], out[i])
		}
	}
}

func TestReadSkipsCommentsAndBlanks(t *testing.T) {
	src := "# a comment\n\n100,R,5,1\n  \n200,W,6,2\n"
	out, err := Decode(strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("got %d records", len(out))
	}
}

func TestReadErrors(t *testing.T) {
	for _, src := range []string{
		"100,R,5",        // too few fields
		"x,R,5,1",        // bad arrival
		"100,Q,5,1",      // bad op
		"100,R,x,1",      // bad lpn
		"100,R,5,x",      // bad pages
		"100,R,5,0",      // invalid pages
		"-5,R,5,1",       // negative arrival
		"100,R,-1,1",     // negative lpn
		"1,R,1,1,extras", // too many fields
	} {
		if _, err := Decode(strings.NewReader(src)); err == nil {
			t.Errorf("Decode accepted %q", src)
		}
	}
}

func TestWriteRejectsInvalid(t *testing.T) {
	var buf bytes.Buffer
	if err := Encode(&buf, []Request{{Pages: 0}}); err == nil {
		t.Error("Encode accepted invalid request")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]Request{
		{Arrival: 0, Op: Read, LPN: 1, Pages: 1},
		{Arrival: simx.Second / 2, Op: Write, LPN: 2, Pages: 3},
		{Arrival: simx.Second, Op: Read, LPN: 3, Pages: 1},
	})
	if s.Requests != 3 || s.Reads != 2 || s.Writes != 1 || s.Pages != 5 {
		t.Errorf("stats = %+v", s)
	}
	if s.ReadRatio() < 0.66 || s.ReadRatio() > 0.67 {
		t.Errorf("ReadRatio = %v", s.ReadRatio())
	}
	if s.OfferedIOPS() != 3 {
		t.Errorf("OfferedIOPS = %v, want 3", s.OfferedIOPS())
	}
	var empty Stats
	if empty.ReadRatio() != 0 || empty.OfferedIOPS() != 0 {
		t.Error("empty stats not zero")
	}
}

// Property: Write then Read is the identity on any valid request list.
func TestPropertyRoundTrip(t *testing.T) {
	f := func(raw []struct {
		Arrival uint32
		IsWrite bool
		LPN     uint32
		Pages   uint8
	}) bool {
		in := make([]Request, 0, len(raw))
		for _, r := range raw {
			op := Read
			if r.IsWrite {
				op = Write
			}
			in = append(in, Request{
				Arrival: simx.Time(r.Arrival),
				Op:      op,
				LPN:     int64(r.LPN),
				Pages:   units.Pages(r.Pages%16) + 1,
			})
		}
		var buf bytes.Buffer
		if err := Encode(&buf, in); err != nil {
			return false
		}
		out, err := Decode(&buf)
		if err != nil || len(out) != len(in) {
			return false
		}
		for i := range in {
			if in[i] != out[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
