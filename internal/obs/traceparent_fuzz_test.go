package obs

import (
	"strings"
	"testing"
)

// wellFormedTraceParent reports whether s is a traceparent in the W3C
// layout: 55 characters, lowercase hex fields of 2, 32, 16 and 2 digits
// joined by '-', and a version other than ff.
func wellFormedTraceParent(s string) bool {
	if len(s) != 55 || s[:2] == "ff" {
		return false
	}
	for i := 0; i < len(s); i++ {
		c := s[i]
		if i == 2 || i == 35 || i == 52 {
			if c != '-' {
				return false
			}
		} else if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f') {
			return false
		}
	}
	return true
}

// FuzzTraceParent: a value ParseTraceParent accepts is a well-formed W3C
// traceparent whose IDs are the ones it returns, and the context it
// returns survives FormatTraceParent → ParseTraceParent (flags other than
// the sampled bit are not kept).
func FuzzTraceParent(f *testing.F) {
	trace, span := strings.Repeat("4b", 16), strings.Repeat("a7", 8)
	for _, s := range []string{
		"00-" + trace + "-" + span + "-01",
		"00-" + trace + "-" + span + "-00",
		"01-" + trace + "-" + span + "-03",
		"zz-" + trace + "-" + span + "-01",                  // non-hex version
		"00-" + strings.ToUpper(trace) + "-" + span + "-01", // uppercase hex
		"00-" + trace + "-" + strings.ToUpper(span) + "-01",
		"00-" + trace + "-" + span + "-01-extra", // trailing bytes
		"ff-" + trace + "-" + span + "-01",
		"-0-" + trace + "-" + span + "-00", // a separator where a digit goes
		"",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		sc, ok := ParseTraceParent(s)
		if !ok {
			return
		}
		if !wellFormedTraceParent(s) {
			t.Fatalf("ParseTraceParent accepted malformed %q", s)
		}
		out := FormatTraceParent(sc)
		if out[3:52] != s[3:52] {
			t.Fatalf("%q parsed to IDs %q", s, out[3:52])
		}
		if back, ok := ParseTraceParent(out); !ok || back != sc {
			t.Fatalf("%q → %+v → %q → %+v, %v", s, sc, out, back, ok)
		}
	})
}
