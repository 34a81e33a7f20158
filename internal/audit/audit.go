// Package audit records who asked the locator about whom. ε-PPI's
// published matrix bounds what a *single* answer reveals; an attacker
// who scans — the common-identity attack of the paper mounted live,
// one owner at a time — is only visible in the query stream. The audit
// log is that stream, durable: one checksummed JSON line per query,
// written asynchronously so the hot path never blocks on disk, bounded
// so a slow disk sheds records (counted) instead of memory.
//
// Frame format, one record per line:
//
//	crc32hex<SP>json<LF>
//
// where crc32hex is the 8-hex-digit IEEE CRC32 of exactly the json
// bytes. A torn tail line (crash mid-write) or a flipped bit fails the
// CRC and is skipped — and counted — by the reader; every intact line
// remains usable. Files rotate by size as audit-NNNNNN.jsonl; each
// process run starts a fresh file, so a crashed run's possibly-torn
// tail is never appended to.
//
// A nil *Sink is the disabled state: Record on it is a no-op that
// allocates nothing — the query hot path pays one nil check.
package audit

import (
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
)

// Entry is one audited query. Field tags are short on purpose: the log
// is written once per query and kept for a long time.
type Entry struct {
	// Time is the query's arrival, unix nanoseconds. Record stamps it
	// when left zero.
	Time int64 `json:"t"`
	// Route names the operation: "query" or "batch". Logs written
	// before the substring search route was removed may also hold
	// "search"; eppi-audit counts those like any other route.
	Route string `json:"route"`
	// Owner is the queried identity (the privacy-relevant datum).
	Owner string `json:"owner,omitempty"`
	// Shard is the column shard that answered; -1 when unknown.
	Shard int `json:"shard"`
	// Epoch is the index publication that answered.
	Epoch uint64 `json:"epoch"`
	// Trace is the request's trace id, joining the audit record to
	// spans and logs.
	Trace string `json:"trace,omitempty"`
	// Results is the answer cardinality; -1 for "owner unknown".
	Results int `json:"results"`
	// Status is the HTTP status returned.
	Status int `json:"status,omitempty"`
}

// Options tunes a Sink; the zero value is serviceable.
type Options struct {
	// RingSize bounds the in-flight record buffer (default 1024).
	// When full, Record drops (counted in eppi_audit_dropped_total).
	RingSize int
	// MaxFileBytes rotates the active file when it would exceed this
	// size (default 64 MiB).
	MaxFileBytes int64
	// Registry, when non-nil, receives the sink's counters.
	Registry *metrics.Registry
	// Logger, when non-nil, reports writer-goroutine I/O errors.
	Logger *slog.Logger
}

const (
	defaultRing     = 1024
	defaultMaxBytes = 64 << 20
	filePrefix      = "audit-"
	fileSuffix      = ".jsonl"
)

// Sink is the async audit writer. All exported methods are safe for
// concurrent use and on a nil receiver.
type Sink struct {
	ch   chan Entry
	stop chan struct{}
	done chan struct{}
	once sync.Once

	dir      string
	maxBytes int64
	seq      int
	cur      *os.File
	curSize  int64
	closeErr error

	dropped   *metrics.Counter
	records   *metrics.Counter
	rotations *metrics.Counter
	logger    *slog.Logger
}

// FileName renders the rotation sequence's file name: audit-000001.jsonl.
func FileName(seq int) string {
	return fmt.Sprintf("%s%06d%s", filePrefix, seq, fileSuffix)
}

// Open creates an audit sink writing into dir (created if missing) and
// starts its writer goroutine. The sink begins a fresh file numbered
// after the highest existing one — it never appends to a previous
// run's file, whose tail may be torn.
func Open(dir string, opts Options) (*Sink, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("audit: %w", err)
	}
	ring := opts.RingSize
	if ring <= 0 {
		ring = defaultRing
	}
	maxBytes := opts.MaxFileBytes
	if maxBytes <= 0 {
		maxBytes = defaultMaxBytes
	}
	logger := opts.Logger
	if logger == nil {
		logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s := &Sink{
		ch:       make(chan Entry, ring),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
		dir:      dir,
		maxBytes: maxBytes,
		seq:      maxSeq(dir),
		logger:   logger,
	}
	if reg := opts.Registry; reg != nil {
		s.dropped = reg.Counter("eppi_audit_dropped_total", "Audit records dropped because the ring was full.")
		s.records = reg.Counter("eppi_audit_records_total", "Audit records written to disk.")
		s.rotations = reg.Counter("eppi_audit_rotations_total", "Audit log file rotations.")
	}
	if err := s.rotate(); err != nil {
		return nil, err
	}
	go s.run()
	return s, nil
}

// maxSeq returns the highest rotation sequence present in dir (0 when
// none parse).
func maxSeq(dir string) int {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	max := 0
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, filePrefix) || !strings.HasSuffix(name, fileSuffix) {
			continue
		}
		n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, filePrefix), fileSuffix))
		if err == nil && n > max {
			max = n
		}
	}
	return max
}

// Record enqueues one entry, stamping its time when unset. It never
// blocks: a full ring drops the record and counts the drop. On a nil
// sink (auditing disabled) it is a no-op and allocates nothing.
func (s *Sink) Record(e Entry) {
	if s == nil {
		return
	}
	if e.Time == 0 {
		e.Time = time.Now().UnixNano()
	}
	select {
	case s.ch <- e:
	default:
		s.dropped.Inc()
	}
}

// Close drains buffered records to disk and closes the active file.
// Safe to call more than once. Record calls racing Close may or may
// not land; callers should stop serving first.
func (s *Sink) Close() error {
	if s == nil {
		return nil
	}
	s.once.Do(func() { close(s.stop) })
	<-s.done
	return s.closeErr
}

// Dir returns the directory the sink writes into.
func (s *Sink) Dir() string {
	if s == nil {
		return ""
	}
	return s.dir
}

func (s *Sink) run() {
	defer close(s.done)
	for {
		select {
		case e := <-s.ch:
			s.write(e)
		case <-s.stop:
			for {
				select {
				case e := <-s.ch:
					s.write(e)
				default:
					if s.cur != nil {
						if err := s.cur.Sync(); err != nil && s.closeErr == nil {
							s.closeErr = err
						}
						if err := s.cur.Close(); err != nil && s.closeErr == nil {
							s.closeErr = err
						}
					}
					return
				}
			}
		}
	}
}

// write frames and appends one record, rotating first when the active
// file would overflow. Runs only on the writer goroutine.
func (s *Sink) write(e Entry) {
	raw, err := marshalEntry(e)
	if err != nil {
		s.logger.Warn("audit: marshal failed", slog.Any("error", err))
		return
	}
	line := frame(raw)
	if s.cur == nil || s.curSize+int64(len(line)) > s.maxBytes {
		if err := s.rotate(); err != nil {
			s.logger.Warn("audit: rotation failed", slog.Any("error", err))
			s.dropped.Inc()
			return
		}
	}
	n, err := s.cur.Write(line)
	s.curSize += int64(n)
	if err != nil {
		s.logger.Warn("audit: write failed", slog.Any("error", err))
		return
	}
	s.records.Inc()
}

// rotate closes the active file (if any) and opens the next in the
// sequence.
func (s *Sink) rotate() error {
	if s.cur != nil {
		_ = s.cur.Sync()
		_ = s.cur.Close()
		s.cur = nil
		s.rotations.Inc()
	}
	s.seq++
	f, err := os.OpenFile(filepath.Join(s.dir, FileName(s.seq)), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("audit: %w", err)
	}
	s.cur = f
	s.curSize = 0
	return nil
}

// frame wraps marshaled entry bytes in the line format:
// crc32hex<SP>json<LF>.
func frame(raw []byte) []byte {
	line := make([]byte, 0, len(raw)+10)
	line = fmt.Appendf(line, "%08x ", crc32.ChecksumIEEE(raw))
	line = append(line, raw...)
	return append(line, '\n')
}

// Files lists dir's audit files in rotation order.
func Files(dir string) ([]string, error) {
	matches, err := filepath.Glob(filepath.Join(dir, filePrefix+"*"+fileSuffix))
	if err != nil {
		return nil, fmt.Errorf("audit: %w", err)
	}
	sort.Strings(matches)
	return matches, nil
}
