package privacy

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"strconv"
)

// FileName is the report's name inside an epoch directory.
const FileName = "privacy.json"

// DetailFileName is the operator-only detail document's name inside an
// epoch directory. Unlike privacy.json it is never served over HTTP:
// it carries per-identity data (ε deciles, exact violation counts) that
// must not leave the store's filesystem.
const DetailFileName = "privacy_detail.json"

var (
	// ErrChecksum reports a privacy.json whose self-checksum does not
	// match its content — bit rot or tampering after publication.
	ErrChecksum = errors.New("privacy: report checksum mismatch")
	// ErrNoChecksum reports a report file carrying no checksum at all.
	ErrNoChecksum = errors.New("privacy: report has no checksum")
	// ErrVersion reports a report schema this build cannot interpret.
	ErrVersion = errors.New("privacy: unsupported report version")
)

// encode serializes a report the one canonical way both the writer and
// the verifier use. encoding/json emits struct fields in declaration
// order, so the byte stream is deterministic for a given Report value.
func encode(r *Report) ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// checksum computes the self-CRC of a report: the CRC32 (IEEE) of its
// canonical encoding with the Checksum field empty.
func checksum(r *Report) (string, error) {
	cp := *r
	cp.Checksum = ""
	body, err := encode(&cp)
	if err != nil {
		return "", fmt.Errorf("privacy: %w", err)
	}
	return fmt.Sprintf("%08x", crc32.ChecksumIEEE(body)), nil
}

// seal encodes v — a *Report or *Detail with Checksum blank — once and
// splices the CRC32 of those bytes in as the closing "checksum" field:
// Checksum is the last field and omitempty, so this is byte for byte what
// encoding the stamped document again would produce. It returns the file
// bytes, newline included.
func seal(v any) ([]byte, error) {
	body, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("privacy: %w", err)
	}
	return sealBody(body), nil
}

// The closing field sealBody puts in place of a body's final "\n}":
// checksumOpen, eight hex digits, checksumClose.
const (
	checksumOpen  = ",\n  \"checksum\": \""
	checksumClose = "\"\n}\n"
	sealTailLen   = len(checksumOpen) + 8 + len(checksumClose)
)

// sealBody splices the CRC32 of body, an indented document with Checksum
// blank, into it as the closing "checksum" field, in place when body has
// the capacity.
func sealBody(body []byte) []byte {
	sum := crc32.ChecksumIEEE(body)
	// Version is never omitted, so the object ends "\n}".
	return fmt.Appendf(body[:len(body)-len("\n}")], checksumOpen+"%08x"+checksumClose, sum)
}

// Sealed returns a copy of r stamped with epoch and its self-checksum
// — the form Decode accepts. Serving paths that compute a report in
// memory (demo nodes without an epoch store) seal it before install so
// clients can verify it like any published one.
func Sealed(r *Report, epoch uint64) (*Report, error) {
	cp := *r
	cp.Epoch = epoch
	sum, err := checksum(&cp)
	if err != nil {
		return nil, err
	}
	cp.Checksum = sum
	return &cp, nil
}

// Seal stamps the epoch and self-checksum onto a report, returning the
// bytes WriteFile would persist.
func Seal(r *Report, epoch uint64) ([]byte, error) {
	cp := *r
	cp.Epoch, cp.Checksum = epoch, ""
	return seal(&cp)
}

// WriteFile seals the report for epoch and writes it as privacy.json
// into dir via write-temp + rename, so readers never observe a torn
// report. The report file stays human-readable JSON: the checksum is a
// field of the document, not a binary frame around it — `cat` works,
// and any edit (even reformatting) invalidates the seal.
func WriteFile(dir string, r *Report, epoch uint64) error {
	raw, err := Seal(r, epoch)
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, "."+FileName+".tmp")
	if err := os.WriteFile(tmp, raw, 0o644); err != nil {
		return fmt.Errorf("privacy: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, FileName)); err != nil {
		return fmt.Errorf("privacy: %w", err)
	}
	return nil
}

// Decode parses a sealed report and verifies its self-checksum by
// re-encoding the document with the checksum cleared and comparing
// CRCs. Whitespace or field-order edits change the canonical encoding
// and fail the check — the seal covers the document as written.
func Decode(raw []byte) (*Report, error) {
	var r Report
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("privacy: %w", err)
	}
	if r.Version != Version {
		return nil, fmt.Errorf("%w: %d (want %d)", ErrVersion, r.Version, Version)
	}
	if r.Checksum == "" {
		return nil, ErrNoChecksum
	}
	want, err := checksum(&r)
	if err != nil {
		return nil, err
	}
	if want != r.Checksum {
		return nil, fmt.Errorf("%w: have %s, computed %s", ErrChecksum, r.Checksum, want)
	}
	return &r, nil
}

// ReadFile loads and verifies dir/privacy.json.
func ReadFile(dir string) (*Report, error) {
	raw, err := os.ReadFile(filepath.Join(dir, FileName))
	if err != nil {
		return nil, fmt.Errorf("privacy: %w", err)
	}
	return Decode(raw)
}

// WriteDetailFile seals the detail for epoch and writes it as
// privacy_detail.json into dir via write-temp + rename. The file is
// created 0600: it is an operator artifact, readable only by the store
// owner, and serving paths must never pick it up.
func WriteDetailFile(dir string, d *Detail, epoch uint64) error {
	raw, err := sealDetail(d, epoch)
	if err != nil {
		return err
	}
	tmp := filepath.Join(dir, "."+DetailFileName+".tmp")
	if err := os.WriteFile(tmp, raw, 0o600); err != nil {
		return fmt.Errorf("privacy: %w", err)
	}
	if err := os.Rename(tmp, filepath.Join(dir, DetailFileName)); err != nil {
		return fmt.Errorf("privacy: %w", err)
	}
	return nil
}

// bucketsField is identity_buckets as MarshalIndent writes it for a nil
// map: the slot sealDetail fills.
const bucketsField = "\n  \"identity_buckets\": null"

// sealDetail returns the bytes seal would for d stamped with epoch,
// without encoding/json's reflection over the n-entry identity map. The
// fixed fields go through MarshalIndent with the map left nil, and the
// map is written into its slot by hand: keys sorted once with
// slices.Sort (the byte order encoding/json sorts map keys in), and each
// key either written as is — plain printable ASCII that needs no escape
// — or escaped by json.Marshal.
func sealDetail(d *Detail, epoch uint64) ([]byte, error) {
	cp := *d
	cp.Epoch, cp.Checksum, cp.IdentityBuckets = epoch, "", nil
	head, err := json.MarshalIndent(&cp, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("privacy: %w", err)
	}
	if d.IdentityBuckets == nil {
		return sealBody(head), nil
	}
	// Identity buckets precede violations, and no string can hold a raw
	// newline, so the first match is the field.
	at := bytes.Index(head, []byte(bucketsField)) + len(bucketsField) - len("null")
	keys := make([]string, 0, len(d.IdentityBuckets))
	size := len(head) + sealTailLen
	for k := range d.IdentityBuckets {
		keys = append(keys, k)
		size += len(k) + len(",\n    \"\": 9")
	}
	slices.Sort(keys)
	body := make([]byte, 0, size)
	body = append(body, head[:at]...)
	if len(keys) == 0 {
		body = append(body, "{}"...)
	} else {
		for i, k := range keys {
			if i == 0 {
				body = append(body, "{\n    "...)
			} else {
				body = append(body, ",\n    "...)
			}
			body = appendKey(body, k)
			body = append(body, ": "...)
			body = strconv.AppendUint(body, uint64(d.IdentityBuckets[k]), 10)
		}
		body = append(body, "\n  }"...)
	}
	body = append(body, head[at+len("null"):]...)
	return sealBody(body), nil
}

// appendKey appends k as a JSON string exactly as encoding/json writes a
// map key: directly when every byte is printable ASCII other than the
// quote, the backslash and the HTML-escaped <, > and &; through
// json.Marshal otherwise.
func appendKey(dst []byte, k string) []byte {
	for i := 0; i < len(k); i++ {
		if c := k[i]; c < 0x20 || c > 0x7e || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			quoted, _ := json.Marshal(k) // a string always encodes
			return append(dst, quoted...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, k...)
	return append(dst, '"')
}

// DecodeDetail parses a sealed detail document and verifies its
// self-checksum. Unlike Decode it checks the CRC over the bytes as
// written rather than over a re-encoding, so every document the writer
// seals reads back — also one whose keys encoding/json cannot round-trip
// (invalid UTF-8 decodes to U+FFFD) — and any edit still breaks it.
func DecodeDetail(raw []byte) (*Detail, error) {
	var d Detail
	if err := json.Unmarshal(raw, &d); err != nil {
		return nil, fmt.Errorf("privacy: %w", err)
	}
	if d.Version != Version {
		return nil, fmt.Errorf("%w: %d (want %d)", ErrVersion, d.Version, Version)
	}
	if d.Checksum == "" {
		return nil, ErrNoChecksum
	}
	// The seal covers the bytes as written: the document with its closing
	// checksum field taken out again.
	cut := len(raw) - sealTailLen
	if cut < 0 || !bytes.HasPrefix(raw[cut:], []byte(checksumOpen)) || !bytes.HasSuffix(raw, []byte(checksumClose)) {
		return nil, fmt.Errorf("%w: checksum is not the closing field", ErrChecksum)
	}
	sum := crc32.Update(crc32.ChecksumIEEE(raw[:cut]), crc32.IEEETable, []byte("\n}"))
	if want := fmt.Sprintf("%08x", sum); want != d.Checksum {
		return nil, fmt.Errorf("%w: have %s, computed %s", ErrChecksum, d.Checksum, want)
	}
	return &d, nil
}

// ReadDetailFile loads and verifies dir/privacy_detail.json.
func ReadDetailFile(dir string) (*Detail, error) {
	raw, err := os.ReadFile(filepath.Join(dir, DetailFileName))
	if err != nil {
		return nil, fmt.Errorf("privacy: %w", err)
	}
	return DecodeDetail(raw)
}

// DiffResult summarizes how the privacy posture moved between two
// epochs' reports — the offline analyzer's "is it drifting?" view.
type DiffResult struct {
	FromEpoch uint64 `json:"from_epoch"`
	ToEpoch   uint64 `json:"to_epoch"`
	// From/To pairs: [0] is the older report's value, [1] the newer's.
	Identities   [2]int     `json:"identities"`
	Providers    [2]int     `json:"providers"`
	Commons      [2]int     `json:"commons"`
	Violations   [2]int     `json:"violations"`
	MixRatio     [2]float64 `json:"mix_ratio"`
	SuccessRatio [2]float64 `json:"success_ratio"`
	// BucketFP is the achieved FP rate per ε decile, older vs newer.
	BucketFP [NumBuckets][2]float64 `json:"bucket_fp"`
}

// Diff compares two reports, oldest first.
func Diff(from, to *Report) *DiffResult {
	d := &DiffResult{
		FromEpoch:    from.Epoch,
		ToEpoch:      to.Epoch,
		Identities:   [2]int{from.Identities, to.Identities},
		Providers:    [2]int{from.Providers, to.Providers},
		Commons:      [2]int{from.Commons, to.Commons},
		Violations:   [2]int{from.ViolationCount, to.ViolationCount},
		MixRatio:     [2]float64{from.MixRatio, to.MixRatio},
		SuccessRatio: [2]float64{from.SuccessRatio, to.SuccessRatio},
	}
	for i := 0; i < NumBuckets; i++ {
		if i < len(from.Buckets) {
			d.BucketFP[i][0] = from.Buckets[i].AchievedFP
		}
		if i < len(to.Buckets) {
			d.BucketFP[i][1] = to.Buckets[i].AchievedFP
		}
	}
	return d
}
