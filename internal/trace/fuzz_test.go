package trace

import (
	"bytes"
	"fmt"
	"math"
	"slices"
	"strings"
	"testing"
)

// FuzzDecode feeds arbitrary text to Decode. Decode must never panic,
// and any trace it accepts must come back unchanged from Encode then
// Decode.
func FuzzDecode(f *testing.F) {
	f.Add("0,R,0,1\r\n1500,W,7,8\r\n")
	f.Add("# a comment\n\n  \n100,read,5,1\n200, write ,6,2\n")
	f.Add("10,0,3,1\n20,1,4,2\n30,2,5,1\n")
	f.Add("-5,R,0,1\n")
	f.Add(fmt.Sprintf("0,W,%d,1\n", int64(math.MaxInt64)))
	f.Fuzz(func(t *testing.T, in string) {
		reqs, err := Decode(strings.NewReader(in))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := Encode(&buf, reqs); err != nil {
			t.Fatalf("Encode of a decoded trace: %v", err)
		}
		back, err := Decode(&buf)
		if err != nil {
			t.Fatalf("Decode of an encoded trace: %v\n%s", err, buf.String())
		}
		if !slices.Equal(back, reqs) {
			t.Fatalf("round trip changed the trace:\n got %+v\nwant %+v", back, reqs)
		}
	})
}
