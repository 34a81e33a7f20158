package privacy

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// marshalIndentSeal is the detail seal as encoding/json alone writes it:
// the reference sealDetail's hand-written identity map must match.
func marshalIndentSeal(t *testing.T, d *Detail, epoch uint64) []byte {
	t.Helper()
	cp := *d
	cp.Epoch, cp.Checksum = epoch, ""
	body, err := json.MarshalIndent(&cp, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	end := len(body) - len("\n}")
	return fmt.Appendf(body[:end:end], ",\n  \"checksum\": \"%08x\"\n}\n", crc32.ChecksumIEEE(body))
}

// TestDetailSealMatchesMarshalIndent holds the detail writer to
// encoding/json byte for byte on the keys its escaping and ordering
// decide — quotes, backslashes, HTML characters, control bytes, the JSON
// line separators, multi-byte and invalid UTF-8 — on empty and nil maps,
// and with no violations and with a full sample of them. Every output must
// also read back and verify.
func TestDetailSealMatchesMarshalIndent(t *testing.T) {
	plain := map[string]uint8{"owner://a": 1, "owner://b": 9, "": 0, "~": 3, " lead": 4}
	withKeys := func(keys ...string) map[string]uint8 {
		m := map[string]uint8{"owner://z": 2, "owner://m": 7}
		for i, k := range keys {
			m[k] = uint8(i % NumBuckets)
		}
		return m
	}
	full := make([]ViolationDetail, MaxViolations)
	for i := range full {
		full[i] = ViolationDetail{
			Name: fmt.Sprintf("owner://v%d<&>\"\\", i), Epsilon: 0.5, AchievedFP: 0.25,
			Published: i + 1, FalsePositives: i / 2,
		}
	}
	cases := map[string]*Detail{
		"plain":       {Version: Version, IdentityBuckets: plain},
		"quote":       {Version: Version, IdentityBuckets: withKeys(`a"b`, `"`, `""`)},
		"backslash":   {Version: Version, IdentityBuckets: withKeys(`a\b`, `\`, `A`)},
		"html":        {Version: Version, IdentityBuckets: withKeys("<", ">", "&", "a<b>&c")},
		"control":     {Version: Version, IdentityBuckets: withKeys("\x00", "\x01", "a\nb", "\t", "\r", "\b\f", "\x1f", "\x7f")},
		"separators":  {Version: Version, IdentityBuckets: withKeys("a b", " ")},
		"multibyte":   {Version: Version, IdentityBuckets: withKeys("é", "日本", "owner://ü.example", "😀", " ")},
		"invalid":     {Version: Version, IdentityBuckets: withKeys("a\xffb")},
		"truncated":   {Version: Version, IdentityBuckets: withKeys("a\xc3")},
		"empty map":   {Version: Version, IdentityBuckets: map[string]uint8{}},
		"nil map":     {Version: Version},
		"violations":  {Version: Version, IdentityBuckets: plain, Violations: full},
		"one":         {Version: Version, IdentityBuckets: map[string]uint8{"x": 5}, Violations: full[:1]},
		"nil and max": {Version: Version, Violations: full},
		"stale":       {Version: Version, IdentityBuckets: plain, Checksum: "stale"},
	}
	dir := t.TempDir()
	for name, d := range cases {
		for _, epoch := range []uint64{0, 7} {
			want := marshalIndentSeal(t, d, epoch)
			got, err := sealDetail(d, epoch)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s, epoch %d: seal differs from MarshalIndent:\n%s\nwant\n%s", name, epoch, got, want)
				continue
			}
			if err := WriteDetailFile(dir, d, epoch); err != nil {
				t.Fatal(err)
			}
			onDisk, err := os.ReadFile(filepath.Join(dir, DetailFileName))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(onDisk, want) {
				t.Errorf("%s, epoch %d: WriteDetailFile wrote other bytes than the seal", name, epoch)
			}
			if epoch == 0 {
				continue // an unstamped detail is valid JSON but not a published one
			}
			back, err := ReadDetailFile(dir)
			if err != nil {
				t.Errorf("%s: ReadDetailFile: %v", name, err)
				continue
			}
			if len(back.IdentityBuckets) != len(d.IdentityBuckets) || len(back.Violations) != len(d.Violations) {
				t.Errorf("%s: read back %d buckets and %d violations, wrote %d and %d", name,
					len(back.IdentityBuckets), len(back.Violations), len(d.IdentityBuckets), len(d.Violations))
			}
		}
	}
}

// encodeDetail and detailChecksum are the two-pass reference for the
// detail document: its canonical indented encoding, and the CRC32 of that
// encoding with Checksum blank.
func encodeDetail(d *Detail) ([]byte, error) {
	return json.MarshalIndent(d, "", "  ")
}

func detailChecksum(d *Detail) (string, error) {
	cp := *d
	cp.Checksum = ""
	body, err := encodeDetail(&cp)
	if err != nil {
		return "", err
	}
	return fmt.Sprintf("%08x", crc32.ChecksumIEEE(body)), nil
}
