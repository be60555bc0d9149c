package trace

import (
	"bytes"
	"slices"
	"strings"
	"testing"

	"triplea/internal/units"
)

// FuzzDecode checks that Decode never panics, that every request it
// accepts is valid, and that Encode followed by Decode reproduces the
// decoded requests exactly. Seeds live in testdata/fuzz/FuzzDecode.
func FuzzDecode(f *testing.F) {
	f.Add("0,R,42,1\n1500,W,7,8\n")
	f.Fuzz(func(t *testing.T, src string) {
		reqs, err := Decode(strings.NewReader(src))
		if err != nil {
			return
		}
		for i, r := range reqs {
			if err := r.Validate(); err != nil {
				t.Fatalf("request %d %+v accepted but invalid: %v", i, r, err)
			}
		}
		var buf bytes.Buffer
		if err := Encode(&buf, reqs); err != nil {
			t.Fatalf("Encode of decoded requests: %v", err)
		}
		again, err := Decode(&buf)
		if err != nil {
			t.Fatalf("Decode of encoded requests: %v", err)
		}
		if !slices.Equal(reqs, again) {
			t.Fatalf("round trip changed the requests:\n got %+v\nwant %+v", again, reqs)
		}
	})
}

// FuzzDecodeMSR checks that DecodeMSR never panics and that every
// request it accepts is valid. Seeds live in
// testdata/fuzz/FuzzDecodeMSR.
func FuzzDecodeMSR(f *testing.F) {
	f.Add("128166372003061629,usr,0,Read,8192,4096,1231\n", int64(4096))
	f.Fuzz(func(t *testing.T, src string, pageSize int64) {
		reqs, err := DecodeMSR(strings.NewReader(src), units.Bytes(pageSize))
		if err != nil {
			return
		}
		for i, r := range reqs {
			if err := r.Validate(); err != nil {
				t.Fatalf("request %d %+v accepted but invalid: %v", i, r, err)
			}
		}
	})
}
