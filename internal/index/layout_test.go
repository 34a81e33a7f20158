package index

import (
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/bitmat"
)

// raggedPublished is a providers × owners matrix whose sides straddle the
// 64-bit tile (70 × 130), with an empty column and an all-ones one.
func raggedPublished(t testing.TB) (*bitmat.Matrix, []string) {
	t.Helper()
	const m, n = 70, 130
	pub := bitmat.MustNew(m, n)
	rng := rand.New(rand.NewSource(15))
	for i := 0; i < m; i++ {
		for j := 2; j < n; j++ {
			if rng.Intn(8) == 0 {
				pub.Set(i, j, true)
			}
		}
		pub.Set(i, 1, true) // column 0 stays empty, column 1 is all ones
	}
	names := make([]string, n)
	for j := range names {
		names[j] = fmt.Sprintf("owner-%03d", j)
	}
	return pub, names
}

// TestOwnerMajorMatchesColumnReference pins the serving layout to the
// per-bit column reference: every answer the server gives — by column, by
// name, in a batch — is ColOnes of the source column, and the matrix it
// hands back is the one it was given.
func TestOwnerMajorMatchesColumnReference(t *testing.T) {
	pub, names := raggedPublished(t)
	srv, err := NewServer(pub, names)
	if err != nil {
		t.Fatal(err)
	}
	if srv.Providers() != pub.Rows() || srv.Owners() != pub.Cols() {
		t.Fatalf("server is %d providers × %d owners, source %dx%d", srv.Providers(), srv.Owners(), pub.Rows(), pub.Cols())
	}
	if srv.SearchCost() != pub.Count() {
		t.Fatalf("SearchCost = %d, source holds %d bits", srv.SearchCost(), pub.Count())
	}
	batch := srv.QueryBatch(context.Background(), names)
	for j, name := range names {
		want := pub.ColOnes(j)
		if got := srv.QueryColumn(j); !reflect.DeepEqual(got, want) {
			t.Fatalf("QueryColumn(%d) = %v, ColOnes = %v", j, got, want)
		}
		got, err := srv.Query(name)
		if err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("Query(%q) = %v, %v; ColOnes = %v", name, got, err, want)
		}
		if !batch[j].Found || len(batch[j].Providers) != len(want) ||
			(len(want) > 0 && !reflect.DeepEqual(batch[j].Providers, want)) {
			t.Fatalf("batch row %d = %+v, ColOnes = %v", j, batch[j], want)
		}
	}
	if !srv.PublishedMatrix().Equal(pub) {
		t.Fatal("PublishedMatrix is not the matrix the server was built from")
	}
}

// TestQueryColumnAllocs: a lookup costs its result slice and nothing else.
func TestQueryColumnAllocs(t *testing.T) {
	pub, names := raggedPublished(t)
	srv, err := NewServer(pub, names)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range []int{0, 1, 77} {
		if got := testing.AllocsPerRun(200, func() { srv.QueryColumn(j) }); got > 1 {
			t.Errorf("QueryColumn(%d) allocates %v times, want ≤ 1", j, got)
		}
	}
	if got := testing.AllocsPerRun(200, func() { srv.QueryColumn(0) }); got != 0 {
		t.Errorf("QueryColumn of an empty column allocates %v times, want 0", got)
	}
}

// TestSnapshotByteStable: write → read → write reproduces the file, on a
// geometry where the owner rows end in a partial word.
func TestSnapshotByteStable(t *testing.T) {
	pub, names := raggedPublished(t)
	srv, err := NewServer(pub, names)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.SetShard(1, 2); err != nil {
		t.Fatal(err)
	}
	srv.SetEpoch(9)
	first := encode(t, srv)
	back, err := Read(bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(encode(t, back), first) {
		t.Fatal("re-encoding a loaded snapshot changed its bytes")
	}
	if !back.PublishedMatrix().Equal(pub) {
		t.Fatal("loaded snapshot serves a different matrix")
	}
}

// TestReadRejectsMalformedSnapshot: payloads that pass the frame checksum
// but do not describe an owner-major index.
func TestReadRejectsMalformedSnapshot(t *testing.T) {
	pub, names := raggedPublished(t)
	owners := pub.Transposed()
	good, err := owners.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	// Provider ids ≥ m live in the padding of an owner row's last word:
	// byte 12 + 8·(words per row) − 1 is the top byte of row 0's last word.
	phantom := append([]byte(nil), good...)
	phantom[12+8*2-1] |= 0x80
	// A v2 payload is the same struct with the matrix the other way up.
	rowMajor, err := pub.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		snap Snapshot
		want error
	}{
		{"phantom provider", Snapshot{Matrix: phantom, Names: names}, bitmat.ErrBadEncoding},
		{"names short of rows", Snapshot{Matrix: good, Names: names[:len(names)-1]}, nil},
		{"row-major matrix", Snapshot{Matrix: rowMajor, Names: names}, nil},
		{"duplicate names", Snapshot{Matrix: good, Names: append(append([]string(nil), names[:len(names)-1]...), names[0])}, nil},
		{"bad shard", Snapshot{Matrix: good, Names: names, Shard: 2, Shards: 2}, nil},
	}
	for _, tc := range cases {
		var payload, framed bytes.Buffer
		if err := gob.NewEncoder(&payload).Encode(tc.snap); err != nil {
			t.Fatal(err)
		}
		if _, err := WriteFrame(&framed, FrameSnapshot, payload.Bytes()); err != nil {
			t.Fatal(err)
		}
		_, err := Read(&framed)
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
		} else if tc.want != nil && !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}
