package prf

import (
	"crypto/aes"
	"encoding/binary"
	"encoding/hex"
	"os/exec"
	"strings"
	"testing"
)

// The publication and share keys are part of the output contract: a seed
// must reproduce the M′ and the share messages earlier builds produced.
// These vectors were recorded from the derivation before it moved here.
func TestKeyVectors(t *testing.T) {
	for _, tc := range []struct {
		seed  int64
		p     Purpose
		index uint64
		want  string
	}{
		{424242, Publish, 3, "82fc62b0c3b3dfb5190058ee6f6e8fcc"},
		{777, Share, 5<<31 | 2, "9afa9d2924d9e300a9f228c3daab9498"},
	} {
		key := Key(tc.seed, tc.p, tc.index)
		if got := hex.EncodeToString(key[:]); got != tc.want {
			t.Errorf("Key(%d, %#x, %d) = %s, want %s", tc.seed, uint64(tc.p), tc.index, got, tc.want)
		}
		if got := Seed(tc.seed, tc.p, tc.index); uint64(got) != binary.LittleEndian.Uint64(key[:8]) {
			t.Errorf("Seed(%d, %#x, %d) = %#x, want the key's first word", tc.seed, uint64(tc.p), tc.index, got)
		}
	}
}

// Key must be a pure function of its inputs.
func TestKeyDeterministic(t *testing.T) {
	if Key(42, Coins, 7) != Key(42, Coins, 7) {
		t.Fatal("Key not deterministic")
	}
}

// Small consecutive seeds, purposes and indices — the common case — must
// never collide, in either half of a key.
func TestKeySeparatesInputs(t *testing.T) {
	seen := make(map[uint64]bool)
	for seed := int64(0); seed < 8; seed++ {
		for _, p := range []Purpose{Publish, Coins, Exec, Dealer, Input, OT, Share} {
			for index := uint64(0); index < 64; index++ {
				key := Key(seed, p, index)
				for _, w := range []uint64{binary.LittleEndian.Uint64(key[:8]), binary.LittleEndian.Uint64(key[8:])} {
					if seen[w] {
						t.Fatalf("collision at seed=%d purpose=%#x index=%d", seed, uint64(p), index)
					}
					seen[w] = true
				}
			}
		}
	}
}

// Adjacent indices must give unrelated keys: about half the bits differ.
func TestKeyAvalanche(t *testing.T) {
	var total int
	const pairs = 1000
	for i := uint64(0); i < pairs; i++ {
		a, b := Key(1, Publish, i), Key(1, Publish, i+1)
		for k := range a {
			for x := a[k] ^ b[k]; x != 0; x &= x - 1 {
				total++
			}
		}
	}
	if mean := float64(total) / pairs; mean < 56 || mean > 72 {
		t.Fatalf("mean differing bits %.1f of 128, want ≈ 64", mean)
	}
}

// Stream reads one keystream however it is cut: word w is bytes
// [8w, 8w+8) of the AES-CTR stream (IV 0) read little-endian, Words and
// Read continue each other, and a slot word is AES_k(1 ‖ j) and leaves the
// stream where it was.
func TestStreamLayout(t *testing.T) {
	key := Key(3, Coins, 1)
	block, err := aes.NewCipher(key[:])
	if err != nil {
		t.Fatal(err)
	}
	const words = 700 // more than one Words chunk
	ref := make([]byte, 8*words)
	for b := 0; b < len(ref)/aes.BlockSize; b++ {
		var ctr [aes.BlockSize]byte
		binary.BigEndian.PutUint64(ctr[8:], uint64(b))
		block.Encrypt(ref[b*aes.BlockSize:], ctr[:])
	}

	s := New(key)
	got := make([]uint64, words)
	s.Words(got[:3])
	var odd [8]byte
	s.Read(odd[:5]) // split a word across Read calls
	s.Read(odd[5:])
	got[3] = binary.LittleEndian.Uint64(odd[:])
	slot := s.Slot(9)
	s.Words(got[4:])
	for w, v := range got {
		if want := binary.LittleEndian.Uint64(ref[8*w:]); v != want {
			t.Fatalf("word %d = %#x, want %#x", w, v, want)
		}
	}
	in := [aes.BlockSize]byte{0: 1}
	binary.BigEndian.PutUint64(in[8:], 9)
	block.Encrypt(in[:], in[:])
	if want := binary.BigEndian.Uint64(in[:8]); slot != want {
		t.Fatalf("Slot(9) = %#x, want %#x", slot, want)
	}
}

// Construction draws all its randomness through this package: no non-test
// file of the protocol packages may import math/rand. Workload generation,
// attacks and experiments model the world and keep it.
func TestConstructionImportsNoMathRand(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	pkgs := []string{"core", "gmw", "secsum", "mathx", "field", "secretshare", "prf"}
	args := []string{"list", "-f", `{{.ImportPath}}{{range .Imports}} {{.}}{{end}}`}
	for _, p := range pkgs {
		args = append(args, "repro/internal/"+p)
	}
	out, err := exec.Command(goTool, args...).Output()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) != len(pkgs) {
		t.Fatalf("go list printed %d packages, want %d:\n%s", len(lines), len(pkgs), out)
	}
	for _, line := range lines {
		fields := strings.Fields(line)
		for _, imp := range fields[1:] {
			if imp == "math/rand" || imp == "math/rand/v2" {
				t.Errorf("%s imports %s", fields[0], imp)
			}
		}
	}
}
