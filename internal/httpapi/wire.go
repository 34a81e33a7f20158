package httpapi

// The query wire codec. GET /v1/query and POST /v1/query/batch are the
// serving hot path — every searcher lookup and every gateway upstream call
// crosses them — so their three payloads (QueryResponse,
// BatchQueryRequest, BatchQueryResponse) are written and read here by
// hand instead of through encoding/json's reflection. The node handlers,
// the gateway handlers and the Client all go through this file; nothing
// else knows the format.
//
// The encoder is byte-identical to json.Encoder.Encode of the structs
// (key order, HTML-escaping, trailing newline, omitempty error), except
// that a nil provider list is written as [] — what the handlers always
// sent. The decoder accepts a strict subset of what encoding/json accepts
// and decodes it to exactly the same value; DESIGN.md §8 lists what it
// refuses.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"sync"
)

const (
	// maxResponseBody caps a query or batch response the Client reads: a
	// full-fan-out MaxBatchOwners batch at m = 10⁴ providers is ≈ 61 MB.
	maxResponseBody = 64 << 20
	// maxPooledBuffer bounds the buffers returned to wirePool, so one huge
	// body does not pin its memory in the pool.
	maxPooledBuffer = 64 << 10
	// maxSkipDepth bounds the nesting of an unknown value the decoder
	// skips; deeper input is refused rather than recursed into.
	maxSkipDepth = 64
)

var wirePool = sync.Pool{New: func() any {
	b := make([]byte, 0, 4096)
	return &b
}}

func getBuf() *[]byte { return wirePool.Get().(*[]byte) }

func putBuf(bp *[]byte) {
	if cap(*bp) <= maxPooledBuffer {
		*bp = (*bp)[:0]
		wirePool.Put(bp)
	}
}

// errBodyTooLarge reports a body that overran its read cap.
var errBodyTooLarge = errors.New("body exceeds the read cap")

// readCapped reads r to EOF into *bp, failing with errBodyTooLarge once
// more than limit bytes arrive — a truncated body is never parsed. Past
// the pooled buffer it reads into fresh chunks and joins them once at
// EOF, so a body that overruns the cap costs about the cap in allocation,
// not the twice-the-cap a doubling buffer would.
func readCapped(bp *[]byte, r io.Reader, limit int) error {
	buf := (*bp)[:0]
	var full [][]byte
	size := 0 // bytes in full
	for {
		if len(buf) == cap(buf) {
			full = append(full, buf)
			size += len(buf)
			buf = make([]byte, 0, min(max(size, 4096), limit+1-size))
		}
		n, err := r.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if size+len(buf) > limit {
			return errBodyTooLarge
		}
		if err == io.EOF {
			break
		}
		if err != nil {
			return err
		}
	}
	if full == nil {
		*bp = buf
		return nil
	}
	out := make([]byte, 0, size+len(buf))
	for _, c := range full {
		out = append(out, c...)
	}
	*bp = append(out, buf...)
	return nil
}

// ---- encoder ----

// plainByte marks the bytes encoding/json copies into a string verbatim:
// printable ASCII other than the quote, the backslash and the
// HTML-escaped <, > and &.
var plainByte = func() (t [256]bool) {
	for c := 0x20; c < 0x7f; c++ {
		t[c] = !strings.ContainsRune(`"\<>&`, rune(c))
	}
	return t
}()

// appendString appends s as encoding/json writes it. Plain strings are
// copied; any other goes through json.Marshal, so escaping keeps a single
// definition.
func appendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !plainByte[s[i]] {
			q, _ := json.Marshal(s) // a string always marshals
			return append(dst, q...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// appendInts appends xs as a JSON array; nil is written as [].
func appendInts(dst []byte, xs []int) []byte {
	dst = append(dst, '[')
	for i, x := range xs {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, int64(x), 10)
	}
	return append(dst, ']')
}

// appendList appends an already encoded provider list (nil is written
// as []).
func appendList(dst, list []byte) []byte {
	if list == nil {
		return append(dst, "[]"...)
	}
	return append(dst, list...)
}

func appendQueryResponse(dst []byte, owner string, providers []int) []byte {
	dst = append(dst, `{"owner":`...)
	dst = appendString(dst, owner)
	dst = append(dst, `,"providers":`...)
	dst = appendInts(dst, providers)
	return append(dst, "}\n"...)
}

func appendRawQueryResponse(dst []byte, owner string, providers []byte) []byte {
	dst = append(dst, `{"owner":`...)
	dst = appendString(dst, owner)
	dst = append(dst, `,"providers":`...)
	dst = appendList(dst, providers)
	return append(dst, "}\n"...)
}

// appendRowHead appends a batch row up to its provider list.
func appendRowHead(dst []byte, owner string, found bool) []byte {
	dst = append(dst, `{"owner":`...)
	dst = appendString(dst, owner)
	dst = append(dst, `,"found":`...)
	dst = strconv.AppendBool(dst, found)
	return append(dst, `,"providers":`...)
}

// appendRowTail closes a batch row after its provider list.
func appendRowTail(dst []byte, errText string) []byte {
	if errText != "" {
		dst = append(dst, `,"error":`...)
		dst = appendString(dst, errText)
	}
	return append(dst, '}')
}

func appendBatchRow(dst []byte, r BatchRow) []byte {
	dst = appendInts(appendRowHead(dst, r.Owner, r.Found), r.Providers)
	return appendRowTail(dst, r.Error)
}

func appendRawRow(dst []byte, r RawRow) []byte {
	dst = appendList(appendRowHead(dst, r.Owner, r.Found), r.Providers)
	return appendRowTail(dst, r.Error)
}

// appendRows appends the batch payload of n rows, row(i) giving the i-th
// and enc writing it, so callers need not build a row slice first.
func appendRows[R any](dst []byte, n int, row func(i int) R, enc func([]byte, R) []byte) []byte {
	dst = append(dst, `{"results":[`...)
	for i := 0; i < n; i++ {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = enc(dst, row(i))
	}
	return append(dst, "]}\n"...)
}

func appendBatchResponse(dst []byte, n int, row func(i int) BatchRow) []byte {
	return appendRows(dst, n, row, appendBatchRow)
}

// appendBatchRequest appends the request body exactly as json.Marshal
// writes it (no trailing newline; a nil list is null).
func appendBatchRequest(dst []byte, owners []string) []byte {
	if owners == nil {
		return append(dst, `{"owners":null}`...)
	}
	dst = append(dst, `{"owners":[`...)
	for i, o := range owners {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendString(dst, o)
	}
	return append(dst, "]}"...)
}

// writeWire answers 200 with a payload encoded into a pooled buffer, in
// one Write.
func writeWire(w http.ResponseWriter, encode func([]byte) []byte) {
	bp := getBuf()
	*bp = encode((*bp)[:0])
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(*bp)
	putBuf(bp)
}

// WriteQuery answers GET /v1/query with 200 and owner's provider list
// (nil is written as []).
func WriteQuery(w http.ResponseWriter, owner string, providers []int) {
	writeWire(w, func(dst []byte) []byte { return appendQueryResponse(dst, owner, providers) })
}

// WriteBatch answers POST /v1/query/batch with 200 and n rows, row(i)
// giving the i-th (a nil provider list is written as []).
func WriteBatch(w http.ResponseWriter, n int, row func(i int) BatchRow) {
	writeWire(w, func(dst []byte) []byte { return appendBatchResponse(dst, n, row) })
}

// RawRow is a batch row whose provider list is already encoded — as
// QueryRaw and RawBatch return it — so writing it copies the bytes.
type RawRow struct {
	Owner     string
	Found     bool
	Providers []byte // nil is written as []
	Error     string
}

// WriteQueryRaw is WriteQuery for an already encoded provider list. The
// bytes on the wire equal WriteQuery's for the list they encode.
func WriteQueryRaw(w http.ResponseWriter, owner string, providers []byte) {
	writeWire(w, func(dst []byte) []byte { return appendRawQueryResponse(dst, owner, providers) })
}

// WriteBatchRaw is WriteBatch for rows whose provider lists are already
// encoded. The bytes on the wire equal WriteBatch's for the lists they
// encode.
func WriteBatchRaw(w http.ResponseWriter, n int, row func(i int) RawRow) {
	writeWire(w, func(dst []byte) []byte { return appendRows(dst, n, row, appendRawRow) })
}

// ReadBatchRequest reads and parses a POST /v1/query/batch body under the
// MaxBatchBody and MaxBatchOwners caps. On failure it returns the status
// to answer with — 413 past either cap, 400 for a malformed body — and
// the error message for the body.
func ReadBatchRequest(w http.ResponseWriter, r *http.Request) ([]string, int, error) {
	bp := getBuf()
	defer putBuf(bp)
	if err := readCapped(bp, http.MaxBytesReader(w, r.Body, MaxBatchBody), MaxBatchBody); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) || errors.Is(err, errBodyTooLarge) {
			return nil, http.StatusRequestEntityTooLarge, fmt.Errorf("batch body exceeds %d bytes", MaxBatchBody)
		}
		return nil, http.StatusBadRequest, fmt.Errorf("bad batch request body: %w", err)
	}
	owners, err := parseBatchRequest(*bp)
	if err != nil {
		return nil, http.StatusBadRequest, fmt.Errorf("bad batch request body: %w", err)
	}
	if len(owners) > MaxBatchOwners {
		return nil, http.StatusRequestEntityTooLarge,
			fmt.Errorf("batch of %d owners exceeds the %d cap", len(owners), MaxBatchOwners)
	}
	return owners, http.StatusOK, nil
}

// readWire reads a query-route response body into a pooled buffer under
// maxResponseBody and parses it.
func readWire[T any](body io.Reader, parse func([]byte) (T, error)) (T, error) {
	bp := getBuf()
	defer putBuf(bp)
	if err := readCapped(bp, body, maxResponseBody); err != nil {
		var zero T
		return zero, err
	}
	return parse(*bp)
}

// ---- decoder ----

// wireParser walks one JSON document. Every method that fails leaves the
// parser unusable; callers return the error straight up.
type wireParser struct {
	b []byte
	i int
	// ints collects one array of provider ids before it is copied out at
	// its exact length.
	ints []int
}

func (p *wireParser) fail(what string) error {
	return fmt.Errorf("httpapi: %s at offset %d", what, p.i)
}

func (p *wireParser) ws() {
	for p.i < len(p.b) {
		switch p.b[p.i] {
		case ' ', '\t', '\n', '\r':
			p.i++
		default:
			return
		}
	}
}

// peek skips whitespace and returns the next byte (0 at the end).
func (p *wireParser) peek() byte {
	p.ws()
	if p.i < len(p.b) {
		return p.b[p.i]
	}
	return 0
}

// literal consumes word if it comes next.
func (p *wireParser) literal(word string) bool {
	if p.peek() == word[0] && len(p.b)-p.i >= len(word) && string(p.b[p.i:p.i+len(word)]) == word {
		p.i += len(word)
		return true
	}
	return false
}

// document parses one top-level object, calling field for each key with
// the parser positioned at its value, and refuses anything after it. A
// plain key is a slice of the body, valid only during the call.
func (p *wireParser) document(field func(key []byte) error) error {
	if err := p.object(field); err != nil {
		return err
	}
	if p.ws(); p.i != len(p.b) {
		return p.fail("data after the object")
	}
	return nil
}

func (p *wireParser) object(field func(key []byte) error) error {
	if p.peek() != '{' {
		return p.fail("want an object")
	}
	p.i++
	if p.peek() == '}' {
		p.i++
		return nil
	}
	for {
		key, err := p.key()
		if err != nil {
			return err
		}
		if p.peek() != ':' {
			return p.fail("want ':'")
		}
		p.i++
		if err := field(key); err != nil {
			return err
		}
		switch p.peek() {
		case ',':
			p.i++
		case '}':
			p.i++
			return nil
		default:
			return p.fail("want ',' or '}'")
		}
	}
}

func (p *wireParser) array(elem func() error) error {
	if p.peek() != '[' {
		return p.fail("want an array")
	}
	p.i++
	if p.peek() == ']' {
		p.i++
		return nil
	}
	for {
		if err := elem(); err != nil {
			return err
		}
		switch p.peek() {
		case ',':
			p.i++
		case ']':
			p.i++
			return nil
		default:
			return p.fail("want ',' or ']'")
		}
	}
}

// plain returns the contents of the plain string starting at the next
// token without consuming it, or ok false when that token is not one.
func (p *wireParser) plain() (s []byte, ok bool) {
	if p.peek() != '"' {
		return nil, false
	}
	j := p.i + 1
	for j < len(p.b) && plainByte[p.b[j]] {
		j++
	}
	if j < len(p.b) && p.b[j] == '"' {
		return p.b[p.i+1 : j], true
	}
	return nil, false
}

// key parses an object key without copying it when it is plain.
func (p *wireParser) key() ([]byte, error) {
	if k, ok := p.plain(); ok {
		p.i += len(k) + 2
		return k, nil
	}
	s, err := p.str()
	return []byte(s), err
}

// str parses a string. Plain ones are copied out directly; any with an
// escape, a control byte or non-ASCII goes through encoding/json, which
// validates and unescapes it exactly as a whole-document decode would.
func (p *wireParser) str() (string, error) {
	if s, ok := p.plain(); ok {
		p.i += len(s) + 2
		return string(s), nil
	}
	if p.peek() != '"' {
		return "", p.fail("want a string")
	}
	start := p.i
	j := start + 1
	for j < len(p.b) && p.b[j] != '"' {
		if p.b[j] == '\\' {
			j++
		}
		j++
	}
	if j >= len(p.b) {
		return "", p.fail("unterminated string")
	}
	var s string
	if err := json.Unmarshal(p.b[start:j+1], &s); err != nil {
		return "", p.fail("bad string")
	}
	p.i = j + 1
	return s, nil
}

// int parses an integer by digit accumulation, refusing overflow and any
// fraction or exponent.
func (p *wireParser) int() (int, error) {
	p.ws()
	neg := p.i < len(p.b) && p.b[p.i] == '-'
	if neg {
		p.i++
	}
	limit := uint64(math.MaxInt)
	if neg {
		limit++
	}
	start := p.i
	var u uint64
	for p.i < len(p.b) && p.b[p.i] >= '0' && p.b[p.i] <= '9' {
		d := uint64(p.b[p.i] - '0')
		if u > (limit-d)/10 {
			return 0, p.fail("integer overflows int")
		}
		u = u*10 + d
		p.i++
	}
	switch {
	case p.i == start:
		return 0, p.fail("want an integer")
	case p.b[start] == '0' && p.i-start > 1:
		return 0, p.fail("leading zero")
	case p.i < len(p.b) && (p.b[p.i] == '.' || p.b[p.i] == 'e' || p.b[p.i] == 'E'):
		return 0, p.fail("want an integer")
	}
	v := int(u)
	if neg {
		v = -v
	}
	return v, nil
}

// intList parses an int array into a fresh slice of exactly its length
// (non-nil when empty), or nil for null.
func (p *wireParser) intList() ([]int, error) {
	if p.literal("null") {
		return nil, nil
	}
	p.ints = p.ints[:0]
	err := p.array(func() error {
		v, err := p.int()
		p.ints = append(p.ints, v)
		return err
	})
	if err != nil {
		return nil, err
	}
	return append(make([]int, 0, len(p.ints)), p.ints...), nil
}

// rawInts validates an int array (or null) at the cursor under intList's
// grammar and returns it encoded as appendInts writes the same values:
// the array's own bytes when the sender wrote it that way — every node
// does — else a fresh re-encoding. null reads as [].
func (p *wireParser) rawInts() ([]byte, error) {
	if p.literal("null") {
		return emptyList, nil
	}
	if p.peek() != '[' {
		return nil, p.fail("want an array")
	}
	start := p.i
	n, width := 0, 0 // elements, and their canonical digits and signs
	err := p.array(func() error {
		v, err := p.int()
		n++
		width += intWidth(v)
		return err
	})
	if err != nil {
		return nil, err
	}
	raw := p.b[start:p.i]
	// Each int has one canonical spelling and the grammar admits only
	// longer ones (whitespace, -0), so equal length means equal bytes.
	if len(raw) == 2+width+max(n-1, 0) {
		return raw, nil
	}
	q := wireParser{b: raw}
	xs, _ := q.intList() // raw has just parsed
	return appendInts(nil, xs), nil
}

// intWidth is the length of strconv.AppendInt(nil, v, 10).
func intWidth(v int) int {
	n, u := 1, uint64(v)
	if v < 0 {
		n, u = 2, -u
	}
	for ; u >= 10; u /= 10 {
		n++
	}
	return n
}

// rawStr validates the string at the cursor as str does and returns its
// token, quotes included, without copying or unescaping it.
func (p *wireParser) rawStr() ([]byte, error) {
	if s, ok := p.plain(); ok {
		start := p.i
		p.i += len(s) + 2
		return p.b[start:p.i], nil
	}
	start := p.i
	if _, err := p.str(); err != nil {
		return nil, err
	}
	return p.b[start:p.i], nil
}

// tokenField overwrites *tok with a string token (rawStr); null leaves it
// as is.
func (p *wireParser) tokenField(tok *[]byte) (err error) {
	if !p.literal("null") {
		*tok, err = p.rawStr()
	}
	return err
}

// boolField overwrites *b with a bool value; null leaves it as is.
func (p *wireParser) boolField(b *bool) error {
	switch {
	case p.literal("true"):
		*b = true
	case p.literal("false"):
		*b = false
	case !p.literal("null"):
		return p.fail("want a bool")
	}
	return nil
}

// strField overwrites *s with a string value; null leaves it as is.
func (p *wireParser) strField(s *string) (err error) {
	if !p.literal("null") {
		*s, err = p.str()
	}
	return err
}

// unknown skips the value of a key no payload field has. A key equal to a
// field name up to case is refused: encoding/json would fold it onto the
// field, and the codec does not.
func (p *wireParser) unknown(key []byte, fields ...string) error {
	for _, f := range fields {
		if strings.EqualFold(string(key), f) {
			return p.fail(fmt.Sprintf("key %q differs from %q only in case", key, f))
		}
	}
	return p.skip(0)
}

// skip validates and steps over any JSON value.
func (p *wireParser) skip(depth int) error {
	if depth > maxSkipDepth {
		return p.fail("value nested too deep")
	}
	switch c := p.peek(); {
	case c == '"':
		_, err := p.rawStr()
		return err
	case c == '{':
		return p.object(func([]byte) error { return p.skip(depth + 1) })
	case c == '[':
		return p.array(func() error { return p.skip(depth + 1) })
	case p.literal("true"), p.literal("false"), p.literal("null"):
		return nil
	case c == '-' || c >= '0' && c <= '9':
		return p.number()
	}
	return p.fail("want a value")
}

// number steps over a JSON number: -? (0 | [1-9][0-9]*) (.[0-9]+)? ([eE][+-]?[0-9]+)?
func (p *wireParser) number() error {
	digits := func() int {
		n := 0
		for p.i < len(p.b) && p.b[p.i] >= '0' && p.b[p.i] <= '9' {
			p.i++
			n++
		}
		return n
	}
	at := func(set string) bool {
		if p.i < len(p.b) && strings.IndexByte(set, p.b[p.i]) >= 0 {
			p.i++
			return true
		}
		return false
	}
	at("-")
	lead := p.i
	if n := digits(); n == 0 || n > 1 && p.b[lead] == '0' {
		return p.fail("bad number")
	}
	if at(".") && digits() == 0 {
		return p.fail("bad number")
	}
	if at("eE") {
		at("+-")
		if digits() == 0 {
			return p.fail("bad number")
		}
	}
	return nil
}

func parseQueryResponse(b []byte) (QueryResponse, error) {
	p := wireParser{b: b}
	var qr QueryResponse
	err := p.document(func(key []byte) (err error) {
		switch string(key) {
		case "owner":
			return p.strField(&qr.Owner)
		case "providers":
			qr.Providers, err = p.intList()
			return err
		}
		return p.unknown(key, "owner", "providers")
	})
	return qr, err
}

func parseBatchRequest(b []byte) ([]string, error) {
	p := wireParser{b: b}
	var owners []string
	err := p.document(func(key []byte) error {
		if string(key) != "owners" {
			return p.unknown(key, "owners")
		}
		if p.literal("null") {
			owners = nil
			return nil
		}
		owners = []string{}
		return p.array(func() error {
			s, err := p.str()
			owners = append(owners, s)
			return err
		})
	})
	return owners, err
}

func parseBatchResponse(b []byte) ([]BatchRow, error) {
	p := wireParser{b: b}
	var rows []BatchRow
	seen := false
	err := p.document(func(key []byte) error {
		if string(key) != "results" {
			return p.unknown(key, "results")
		}
		// encoding/json decodes a repeated slice of structs into the first
		// one's elements, merging rows; refuse rather than mimic that.
		if seen {
			return p.fail(`repeated "results" key`)
		}
		seen = true
		if p.literal("null") {
			return nil
		}
		rows = []BatchRow{}
		return p.array(func() error {
			var r BatchRow
			err := p.object(func(key []byte) (err error) {
				switch string(key) {
				case "owner":
					return p.strField(&r.Owner)
				case "found":
					return p.boolField(&r.Found)
				case "providers":
					r.Providers, err = p.intList()
					return err
				case "error":
					return p.strField(&r.Error)
				}
				return p.unknown(key, "owner", "found", "providers", "error")
			})
			rows = append(rows, r)
			return err
		})
	})
	return rows, err
}

// ---- raw decode: the gateway's path ----
//
// The gateway forwards a node's provider lists without decoding them: the
// raw parsers below accept exactly the bodies parseQueryResponse and
// parseBatchResponse accept, but keep each provider list as bytes in the
// encoder's form and each echoed owner as its string token, both slices
// of the body.

// emptyList is the encoding of an empty (or null) provider list.
var emptyList = []byte("[]")

// rawRow is one row of a batch response as parseBatchRaw keeps it.
type rawRow struct {
	owner     []byte // the echoed owner's string token; nil when absent or null
	found     bool
	providers []byte // as appendInts writes the row's list
}

func parseQueryRaw(b []byte) (owner, providers []byte, err error) {
	p := wireParser{b: b}
	providers = emptyList
	err = p.document(func(key []byte) (err error) {
		switch string(key) {
		case "owner":
			return p.tokenField(&owner)
		case "providers":
			providers, err = p.rawInts()
			return err
		}
		return p.unknown(key, "owner", "providers")
	})
	return owner, providers, err
}

// parseBatchRaw appends the rows of a batch response to rows.
func parseBatchRaw(b []byte, rows []rawRow) ([]rawRow, error) {
	p := wireParser{b: b}
	seen := false
	err := p.document(func(key []byte) error {
		if string(key) != "results" {
			return p.unknown(key, "results")
		}
		if seen {
			return p.fail(`repeated "results" key`)
		}
		seen = true
		if p.literal("null") {
			return nil
		}
		return p.array(func() error {
			r := rawRow{providers: emptyList}
			err := p.object(func(key []byte) (err error) {
				switch string(key) {
				case "owner":
					return p.tokenField(&r.owner)
				case "found":
					return p.boolField(&r.found)
				case "providers":
					r.providers, err = p.rawInts()
					return err
				case "error":
					var text []byte
					return p.tokenField(&text)
				}
				return p.unknown(key, "owner", "found", "providers", "error")
			})
			rows = append(rows, r)
			return err
		})
	})
	return rows, err
}

// tokenIs reports whether the string token tok (nil reads as "") decodes
// to s. A token without escapes is compared in place.
func tokenIs(tok []byte, s string) bool {
	if tok == nil {
		return s == ""
	}
	inner := tok[1 : len(tok)-1]
	for _, c := range inner {
		if !plainByte[c] {
			var u string
			return json.Unmarshal(tok, &u) == nil && u == s
		}
	}
	return string(inner) == s
}

// checkEcho requires row i to echo the i-th owner asked: the gateway
// matches rows to owners by position, and a node answering another
// owner's row (or more rows than asked) is not to be believed. A short
// answer passes; the caller reports the owners it left out.
func checkEcho(rows []rawRow, owners []string) error {
	if len(rows) > len(owners) {
		return fmt.Errorf("httpapi: %d rows for %d owners", len(rows), len(owners))
	}
	for i := range rows {
		if !tokenIs(rows[i].owner, owners[i]) {
			return fmt.Errorf("httpapi: row %d echoes %s, want %q", i, rows[i].owner, owners[i])
		}
	}
	return nil
}

// DecodeProviders decodes a provider list in the form QueryRaw and
// RawBatch return it into a fresh slice, non-nil when empty.
func DecodeProviders(list []byte) []int {
	inner := list[1 : len(list)-1]
	if len(inner) == 0 {
		return []int{}
	}
	out := make([]int, 0, CountProviders(list))
	var u uint64
	neg := false
	for _, c := range inner {
		switch c {
		case '-':
			neg = true
		case ',':
			out = append(out, signed(u, neg))
			u, neg = 0, false
		default:
			u = u*10 + uint64(c-'0')
		}
	}
	return append(out, signed(u, neg))
}

func signed(u uint64, neg bool) int {
	if neg {
		return -int(u)
	}
	return int(u)
}

// CountProviders returns the number of ids in an encoded provider list
// (0 for nil).
func CountProviders(list []byte) int {
	if len(list) <= len(emptyList) {
		return 0
	}
	return 1 + bytes.Count(list, comma)
}

var comma = []byte{','}

// CloneProviders copies an encoded provider list — out of a RawBatch,
// whose rows die with Release — into a slice of its own; every empty list
// shares one static copy.
func CloneProviders(list []byte) []byte {
	if len(list) == len(emptyList) {
		return emptyList
	}
	return bytes.Clone(list)
}

// rawBatchPool recycles RawBatch headers and their row slices.
var rawBatchPool = sync.Pool{New: func() any { return new(RawBatch) }}

// RawBatch is a node's batch answer kept as bytes: row i answers the
// i-th owner asked (QueryBatchRaw checks the echo), its provider list as
// the node encoded it. The rows alias one pooled body buffer, which
// Release recycles; no row may be read after Release.
type RawBatch struct {
	buf  *[]byte
	rows []rawRow
}

// Len is the row count; it can fall short of the owners asked (a node
// that dropped rows), never exceed it.
func (b *RawBatch) Len() int { return len(b.rows) }

// Row returns row i: whether its owner is indexed, and its provider list
// as the node sent it ([] for an owner it does not know).
func (b *RawBatch) Row(i int) (found bool, providers []byte) {
	return b.rows[i].found, b.rows[i].providers
}

// Release recycles the body buffer and the batch.
func (b *RawBatch) Release() {
	putBuf(b.buf)
	clear(b.rows)
	*b = RawBatch{rows: b.rows[:0]}
	rawBatchPool.Put(b)
}
