package privacy

import (
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
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
	// Version is never omitted, so the object ends "\n}".
	end := len(body) - len("\n}")
	return fmt.Appendf(body[:end:end], ",\n  \"checksum\": \"%08x\"\n}\n", crc32.ChecksumIEEE(body)), nil
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

// encodeDetail and detailChecksum mirror encode/checksum for the
// operator detail document: same canonical indented JSON, same
// checksum-blank CRC.
func encodeDetail(d *Detail) ([]byte, error) {
	return json.MarshalIndent(d, "", "  ")
}

func detailChecksum(d *Detail) (string, error) {
	cp := *d
	cp.Checksum = ""
	body, err := encodeDetail(&cp)
	if err != nil {
		return "", fmt.Errorf("privacy: %w", err)
	}
	return fmt.Sprintf("%08x", crc32.ChecksumIEEE(body)), nil
}

// WriteDetailFile seals the detail for epoch and writes it as
// privacy_detail.json into dir via write-temp + rename. The file is
// created 0600: it is an operator artifact, readable only by the store
// owner, and serving paths must never pick it up.
func WriteDetailFile(dir string, d *Detail, epoch uint64) error {
	cp := *d
	cp.Epoch, cp.Checksum = epoch, ""
	raw, err := seal(&cp)
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

// DecodeDetail parses a sealed detail document and verifies its
// self-checksum, exactly like Decode does for reports.
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
	want, err := detailChecksum(&d)
	if err != nil {
		return nil, err
	}
	if want != d.Checksum {
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
