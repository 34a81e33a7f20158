package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// wireOwners are the owner strings the byte-compatibility corpus crosses:
// every class of byte encoding/json escapes, plus the plain fast path.
var wireOwners = []string{
	"",
	"owner://site-17.example.org",
	`quote"inside`,
	`back\slash`,
	"<script>&amp;</script>",
	"ctl\x00\x01\x08\x0c\x1f\x7f\t\n\r",
	"line\u2028para\u2029sep",
	"héllo 世界 🎉",
	"bad\xff\xfeutf8\xed\xa0\x80",
}

// wireProviders are the provider lists of the corpus: nil, empty, and a
// large list reaching both ends of int.
var wireProviders = func() [][]int {
	large := make([]int, 0, 1200)
	for i := 0; i < 1200; i++ {
		large = append(large, i*37)
	}
	large = append(large, -1, math.MaxInt, math.MinInt)
	return [][]int{nil, {}, {0}, {3, 1, 4, 1, 5, 9, 2, 6}, large}
}()

// orEmpty is what the handlers always did before encoding: a nil
// provider list goes out as [].
func orEmpty(xs []int) []int {
	if xs == nil {
		return []int{}
	}
	return xs
}

// jsonEncode is the reference: the old handlers' json.Encoder.Encode.
func jsonEncode(t testing.TB, v any) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(v); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// wireRows builds batch rows over the corpus: found and missing, with
// and without a gateway error.
func wireRows() []BatchRow {
	var rows []BatchRow
	for i, owner := range wireOwners {
		for j, providers := range wireProviders {
			row := BatchRow{Owner: owner, Found: (i+j)%3 != 0, Providers: providers}
			if (i+j)%4 == 1 {
				row.Error = "shard 1: " + owner + ": all replicas failed"
			}
			rows = append(rows, row)
		}
	}
	return rows
}

func TestWireMatchesEncodingJSON(t *testing.T) {
	for _, owner := range wireOwners {
		for _, providers := range wireProviders {
			got := appendQueryResponse(nil, owner, providers)
			want := jsonEncode(t, QueryResponse{Owner: owner, Providers: orEmpty(providers)})
			if !bytes.Equal(got, want) {
				t.Fatalf("query %q %d providers:\ncodec %s\njson  %s", owner, len(providers), got, want)
			}
			checkDecodeMatches(t, got)
		}
	}

	rows := wireRows()
	got := appendBatchResponse(nil, len(rows), func(i int) BatchRow { return rows[i] })
	ref := make([]BatchRow, len(rows))
	for i, r := range rows {
		r.Providers = orEmpty(r.Providers)
		ref[i] = r
	}
	if want := jsonEncode(t, BatchQueryResponse{Results: ref}); !bytes.Equal(got, want) {
		t.Fatalf("batch response:\ncodec %s\njson  %s", got, want)
	}
	checkDecodeMatches(t, got)
	empty := appendBatchResponse(nil, 0, nil)
	if want := jsonEncode(t, BatchQueryResponse{Results: []BatchRow{}}); !bytes.Equal(empty, want) {
		t.Fatalf("empty batch response: codec %s, json %s", empty, want)
	}

	for _, owners := range [][]string{nil, {}, wireOwners} {
		got := appendBatchRequest(nil, owners)
		want, err := json.Marshal(BatchQueryRequest{Owners: owners})
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("batch request:\ncodec %s\njson  %s", got, want)
		}
		checkDecodeMatches(t, got)
	}
}

// decodeBoth runs the codec's parser for each payload over b beside
// json.Unmarshal into the same struct and returns how many payloads the
// codec accepted b as; each acceptance must equal what json decodes.
func decodeBoth(t *testing.T, b []byte) (accepted int) {
	t.Helper()
	if qr, err := parseQueryResponse(b); err == nil {
		accepted++
		var want QueryResponse
		if err := json.Unmarshal(b, &want); err != nil || !reflect.DeepEqual(qr, want) {
			t.Fatalf("query %q: codec %#v, json %#v (%v)", b, qr, want, err)
		}
	}
	if owners, err := parseBatchRequest(b); err == nil {
		accepted++
		var want BatchQueryRequest
		if err := json.Unmarshal(b, &want); err != nil || !reflect.DeepEqual(owners, want.Owners) {
			t.Fatalf("batch request %q: codec %#v, json %#v (%v)", b, owners, want.Owners, err)
		}
	}
	if rows, err := parseBatchResponse(b); err == nil {
		accepted++
		var want BatchQueryResponse
		if err := json.Unmarshal(b, &want); err != nil || !reflect.DeepEqual(rows, want.Results) {
			t.Fatalf("batch response %q: codec %#v, json %#v (%v)", b, rows, want.Results, err)
		}
	}
	return accepted
}

// checkDecodeMatches requires an encoder output to decode (as whichever
// payload it is) to what encoding/json reads from it, as written and with
// whitespace between every token.
func checkDecodeMatches(t *testing.T, b []byte) {
	t.Helper()
	for _, ws := range []string{"", " ", "\t\r\n "} {
		if decodeBoth(t, spread(b, ws)) == 0 {
			t.Fatalf("codec refused its own output %q (ws %q)", b, ws)
		}
	}
}

// spread inserts ws between the tokens of the JSON document b.
func spread(b []byte, ws string) []byte {
	out := []byte(ws)
	inString := false
	for i := 0; i < len(b); i++ {
		c := b[i]
		if inString {
			out = append(out, c)
			switch c {
			case '\\':
				i++
				out = append(out, b[i])
			case '"':
				inString = false
			}
			continue
		}
		switch c {
		case '"':
			inString = true
			out = append(out, c)
		case '{', '[', ',', ':':
			out = append(out, c)
			out = append(out, ws...)
		case '}', ']':
			out = append(out, ws...)
			out = append(out, c)
		default:
			out = append(out, c)
		}
	}
	return append(out, ws...)
}

func TestWireDecodeAcceptsJSON(t *testing.T) {
	for _, body := range []string{
		`{"providers":[2,1],"owner":"a"}`,
		` { "owner" : "a" , "providers" : [ 1 , -0 , -9223372036854775808 ] } `,
		`{"owner":"a","x":{"y":[1.5e3,-2E-1,true,false,null,"\u00e9",{}],"z":[]},"providers":null}`,
		`{"owner":"a","owner":null,"providers":[1],"providers":[]}`,
		`{"own\u0065r":"\u2028\ud800"}`,
		`{"owners":["a","b\\c"],"owners":["d"]}`,
		`{"owners":[]}`,
		`{"results":[{"owner":"a","found":true,"found":null,"providers":[7],"error":"e","extra":0}]}`,
		`{"results":null}`,
		`{}`,
	} {
		if decodeBoth(t, []byte(body)) == 0 {
			t.Errorf("codec refused %s", body)
		}
	}
}

// TestWireDecodeRefusals pins the inputs encoding/json accepts but the
// codec refuses (DESIGN.md §8), plus malformed JSON both refuse.
func TestWireDecodeRefusals(t *testing.T) {
	query := func(b []byte) error { _, err := parseQueryResponse(b); return err }
	request := func(b []byte) error { _, err := parseBatchRequest(b); return err }
	response := func(b []byte) error { _, err := parseBatchResponse(b); return err }
	deep := strings.Repeat("[", maxSkipDepth+2) + strings.Repeat("]", maxSkipDepth+2)
	for _, tc := range []struct {
		parse  []func([]byte) error
		bodies []string
	}{
		{[]func([]byte) error{query, request, response}, []string{
			`{"owner":"a","providers":[1]} trailing`,
			`{}{}`,
			"{}\x00",
			`{"Owner":"a","OWNERS":[],"rEsults":[]}`,
			`{"x":` + deep + `}`,
			`null`,
			`[]`,
			`{"x":"a` + "\x01" + `"}`,
			`{"x":"\q"}`,
			`{"x":1,}`,
			`{"x":-}`,
			`{"x":1.}`,
			`{"x":1e}`,
			`{"x":01}`,
			`{"x":tru}`,
			`{"x":1`,
			`{"x" 1}`,
			`{x:1}`,
		}},
		{[]func([]byte) error{query}, []string{
			`{"providers":[null]}`,
			`{"providers":[1.0]}`,
			`{"providers":[1e2]}`,
			`{"providers":[9223372036854775808]}`,
			`{"providers":[-9223372036854775809]}`,
			`{"owner":1}`,
		}},
		{[]func([]byte) error{request}, []string{
			`{"owners":[null]}`,
			`{"owners":"a"}`,
		}},
		{[]func([]byte) error{response}, []string{
			`{"results":[null]}`,
			`{"results":[],"results":[]}`,
			`{"results":[{"providers":[2.5]}]}`,
			`{"results":[{"found":1}]}`,
			`{"results":[{"Found":true}]}`,
		}},
	} {
		for _, body := range tc.bodies {
			for i, parse := range tc.parse {
				if parse([]byte(body)) == nil {
					t.Errorf("parser %d accepted %s", i, body)
				}
			}
		}
	}
}

// TestClientResponseBodyCap streams a 128 MiB owner string at the client:
// it must give up with an error once past maxResponseBody, having
// allocated about the cap — not buffered the whole stream.
func TestClientResponseBodyCap(t *testing.T) {
	chunk := bytes.Repeat([]byte("a"), 64<<10)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
		if _, err := w.Write([]byte(`{"owner":"`)); err != nil {
			return
		}
		for sent := 0; sent < 128<<20; sent += len(chunk) {
			if _, err := w.Write(chunk); err != nil {
				return
			}
		}
	}))
	t.Cleanup(ts.Close)
	client := NewClient(ts.URL, ts.Client(), WithRetries(0))
	for _, call := range []func() error{
		func() error { _, err := client.Query(context.Background(), "alice"); return err },
		func() error { _, err := client.QueryBatch(context.Background(), []string{"alice"}); return err },
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := call()
		runtime.ReadMemStats(&after)
		if err == nil {
			t.Fatal("a 128 MiB body was accepted")
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 80<<20 {
			t.Fatalf("reading the body allocated %d MiB, want < 80", alloc>>20)
		}
	}
}

// FuzzWireDecode holds the decoder to encoding/json: arbitrary bytes never
// panic, any body the codec accepts decodes equal to json.Unmarshal, and
// the encoder's output — byte-identical to json.Encoder — round-trips
// with and without whitespace between its tokens.
func FuzzWireDecode(f *testing.F) {
	for _, owner := range wireOwners {
		for _, providers := range wireProviders[:4] {
			f.Add(appendQueryResponse(nil, owner, providers), owner, len(providers), true)
		}
	}
	rows := wireRows()[:12]
	f.Add(appendBatchResponse(nil, len(rows), func(i int) BatchRow { return rows[i] }), "", 0, false)
	f.Add(appendBatchRequest(nil, wireOwners), "x", 1, false)
	f.Add([]byte(`{"results":[{"owner":"a","found":true,"providers":[1],"error":"e","x":{"y":[1.5e3,null]}}]}`), "a", 2, true)

	f.Fuzz(func(t *testing.T, body []byte, owner string, provider int, found bool) {
		decodeBoth(t, body)
		checkRawDecode(t, body)

		providers := []int{provider, -provider, len(owner)}
		b := appendQueryResponse(nil, owner, providers)
		if want := jsonEncode(t, QueryResponse{Owner: owner, Providers: providers}); !bytes.Equal(b, want) {
			t.Fatalf("query %q:\ncodec %s\njson  %s", owner, b, want)
		}
		checkDecodeMatches(t, b)
		row := BatchRow{Owner: owner, Found: found, Providers: providers[:uint(provider)%4], Error: string(body)}
		b = appendBatchResponse(nil, 2, func(int) BatchRow { return row })
		if want := jsonEncode(t, BatchQueryResponse{Results: []BatchRow{row, row}}); !bytes.Equal(b, want) {
			t.Fatalf("batch response:\ncodec %s\njson  %s", b, want)
		}
		checkDecodeMatches(t, b)
		for _, ws := range []string{"", " ", "\t\r\n "} {
			checkRawDecode(t, spread(b, ws))
		}
		checkDecodeMatches(t, appendBatchRequest(nil, []string{owner, string(body)}))
	})
}

// checkRawDecode holds the raw parsers to the full ones: each accepts
// exactly the bodies its full twin accepts, keeps every provider list as
// appendInts writes the list the full parse decodes, and keeps echoed
// owners that decode to the full parse's owner.
func checkRawDecode(t *testing.T, b []byte) {
	t.Helper()
	sameList := func(what string, got []byte, want []int) {
		t.Helper()
		if enc := appendInts(nil, want); !bytes.Equal(got, enc) {
			t.Fatalf("%s %q: raw list %s, full decode %v", what, b, got, want)
		}
		if dec := DecodeProviders(got); !slices.Equal(dec, want) || dec == nil {
			t.Fatalf("%s %q: DecodeProviders(%s) = %#v, full decode %v", what, b, got, dec, want)
		}
	}
	qr, err := parseQueryResponse(b)
	owner, providers, rawErr := parseQueryRaw(b)
	if (err == nil) != (rawErr == nil) {
		t.Fatalf("query %q: full decode err %v, raw err %v", b, err, rawErr)
	}
	if err == nil {
		if !tokenIs(owner, qr.Owner) {
			t.Fatalf("query %q: raw owner %s, full %q", b, owner, qr.Owner)
		}
		sameList("query", providers, qr.Providers)
	}
	rows, err := parseBatchResponse(b)
	raw, rawErr := parseBatchRaw(b, nil)
	if (err == nil) != (rawErr == nil) {
		t.Fatalf("batch response %q: full decode err %v, raw err %v", b, err, rawErr)
	}
	if err != nil {
		return
	}
	if len(raw) != len(rows) {
		t.Fatalf("batch response %q: %d raw rows, %d full", b, len(raw), len(rows))
	}
	for i, r := range rows {
		if raw[i].found != r.Found || !tokenIs(raw[i].owner, r.Owner) {
			t.Fatalf("batch response %q row %d: raw %v %s, full %v %q", b, i, raw[i].found, raw[i].owner, r.Found, r.Owner)
		}
		sameList("batch response", raw[i].providers, r.Providers)
	}
}

// TestWireRawDecode runs the raw parsers over the corpus as encoded, with
// whitespace between tokens, and over the refusal and acceptance lists,
// where provider lists like [1, -0] are valid but not as the encoder
// writes them and must come back re-encoded.
func TestWireRawDecode(t *testing.T) {
	rows := wireRows()
	bodies := [][]byte{appendBatchResponse(nil, len(rows), func(i int) BatchRow { return rows[i] })}
	for _, owner := range wireOwners {
		for _, providers := range wireProviders {
			bodies = append(bodies, appendQueryResponse(nil, owner, providers))
		}
	}
	for _, b := range bodies {
		for _, ws := range []string{"", " ", "\t\r\n "} {
			checkRawDecode(t, spread(b, ws))
		}
	}
	for _, body := range []string{
		` { "owner" : "a" , "providers" : [ 1 , -0 , -9223372036854775808 ] } `,
		`{"owner":"a","owner":null,"providers":[1],"providers":[]}`,
		`{"results":[{"owner":"a","found":true,"found":null,"providers":[7],"error":"e","extra":0}]}`,
		`{"results":[{"owner":"\u0061","providers":[-0,0]},{"providers":null},{}]}`,
		`{"results":null}`,
		`{"results":[{"providers":[2.5]}]}`,
		`{"results":[{"error":1}]}`,
		`{"results":[],"results":[]}`,
		`{"providers":[null]}`,
		`{}`,
	} {
		checkRawDecode(t, []byte(body))
	}
}

// TestWireRawMatchesWire: the raw writers put out the same bytes as the
// int-list writers when handed the lists those would encode, and a nil
// list as [].
func TestWireRawMatchesWire(t *testing.T) {
	for _, owner := range wireOwners {
		for _, providers := range wireProviders {
			var list []byte
			if providers != nil {
				list = appendInts(nil, providers)
			}
			if got, want := appendRawQueryResponse(nil, owner, list), appendQueryResponse(nil, owner, providers); !bytes.Equal(got, want) {
				t.Fatalf("query %q:\nraw  %s\nints %s", owner, got, want)
			}
		}
	}
	rows := wireRows()
	got := appendRows(nil, len(rows), func(i int) RawRow {
		r := rows[i]
		var list []byte
		if r.Providers != nil {
			list = appendInts(nil, r.Providers)
		}
		return RawRow{Owner: r.Owner, Found: r.Found, Providers: list, Error: r.Error}
	}, appendRawRow)
	if want := appendBatchResponse(nil, len(rows), func(i int) BatchRow { return rows[i] }); !bytes.Equal(got, want) {
		t.Fatalf("batch response:\nraw  %s\nints %s", got, want)
	}
}

// wireSink keeps BenchmarkWire's decoded rows alive.
var wireSink []BatchRow

// BenchmarkWire times the codec against encoding/json on the benchmark's
// batch shape: 64 rows of ≈ 9 providers each, encoded as a node answers
// and decoded as the client reads it.
//
//	go test -run '^$' -bench 'Wire$' ./internal/httpapi/
func BenchmarkWire(b *testing.B) {
	const batch = 64
	rows := make([]BatchRow, batch)
	for i := range rows {
		providers := make([]int, 7+i%5)
		for j := range providers {
			providers[j] = (i*131 + j*457) % 4000
		}
		rows[i] = BatchRow{Owner: fmt.Sprintf("owner://site-%d.example.org", i*97), Found: true, Providers: providers}
	}
	body := appendBatchResponse(nil, batch, func(i int) BatchRow { return rows[i] })

	run := func(name string, op func()) {
		b.Run(name, func(b *testing.B) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op()
			}
			b.StopTimer()
			runtime.ReadMemStats(&after)
			perRow := float64(b.N * batch)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/perRow, "ns/row")
			b.ReportMetric(float64(after.Mallocs-before.Mallocs)/perRow, "allocs/row")
		})
	}
	buf := make([]byte, 0, len(body))
	run("codec/encode", func() {
		buf = appendBatchResponse(buf[:0], batch, func(i int) BatchRow { return rows[i] })
	})
	var enc bytes.Buffer
	run("json/encode", func() {
		enc.Reset()
		_ = json.NewEncoder(&enc).Encode(BatchQueryResponse{Results: rows})
	})
	run("codec/decode", func() {
		var err error
		if wireSink, err = parseBatchResponse(body); err != nil {
			b.Fatal(err)
		}
	})
	run("json/decode", func() {
		var br BatchQueryResponse
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&br); err != nil {
			b.Fatal(err)
		}
		wireSink = br.Results
	})
}

// TestClientRawChecksEcho: QueryRaw and QueryBatchRaw believe a row only
// when it echoes the owner asked at its position. A short batch passes
// (the gateway reports the owners left out); a wrong owner, a row too
// many or a body outside the grammar fails the call.
func TestClientRawChecksEcho(t *testing.T) {
	var body string
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set(EpochHeader, "7")
		_, _ = w.Write([]byte(body))
	}))
	t.Cleanup(ts.Close)
	client := NewClient(ts.URL, ts.Client(), WithRetries(0))
	ctx := context.Background()

	for _, tc := range []struct {
		body, want string
	}{
		{`{"owner":"a","providers":[1,2]}`, "[1,2]"},
		{`{"owner":"a","providers":[ 3 ,-0]}`, "[3,0]"},
		{`{"owner":"b","providers":[1]}`, ""},
		{`{"providers":[1]}`, ""},
		{`{"owner":"a","providers":[1.5]}`, ""},
	} {
		body = tc.body
		got, epoch, err := client.QueryRaw(ctx, "a")
		if tc.want == "" {
			if err == nil {
				t.Errorf("QueryRaw accepted %s", tc.body)
			}
			continue
		}
		if err != nil || string(got) != tc.want || epoch != 7 {
			t.Errorf("QueryRaw over %s = %s, %d, %v; want %s", tc.body, got, epoch, err, tc.want)
		}
	}

	owners := []string{"a", "b"}
	for _, tc := range []struct {
		body string
		rows int // -1: the call must fail
	}{
		{`{"results":[{"owner":"a","found":true,"providers":[4]},{"owner":"b","found":false,"providers":[]}]}`, 2},
		{`{"results":[{"owner":"a","found":true,"providers":[4]}]}`, 1},
		{`{"results":null}`, 0},
		{`{"results":[{"owner":"b","found":true,"providers":[4]},{"owner":"a","found":false,"providers":[]}]}`, -1},
		{`{"results":[{"owner":"a"},{"owner":"b"},{"owner":"b"}]}`, -1},
		{`{"results":[{"owner":"a","providers":[null]}]}`, -1},
	} {
		body = tc.body
		rb, epoch, err := client.QueryBatchRaw(ctx, owners)
		if tc.rows < 0 {
			if err == nil {
				t.Errorf("QueryBatchRaw accepted %s", tc.body)
				rb.Release()
			}
			continue
		}
		if err != nil || rb.Len() != tc.rows || epoch != 7 {
			t.Fatalf("QueryBatchRaw over %s: %v, epoch %d", tc.body, err, epoch)
		}
		if tc.rows > 0 {
			if found, list := rb.Row(0); !found || string(list) != "[4]" {
				t.Errorf("row 0 = %v %s, want true [4]", found, list)
			}
		}
		rb.Release()
	}
}
