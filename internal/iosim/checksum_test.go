package iosim

import (
	"errors"
	"hash/crc32"
	"math/rand"
	"testing"

	"github.com/ooc-hpf/passion/internal/trace"
)

// TestZeroBlockCRCTable pins the precomputed table against the direct
// computation it replaced, for every prefix length a seedZero can need.
func TestZeroBlockCRCTable(t *testing.T) {
	zero := make([]byte, ChecksumBlockBytes)
	for n := 0; n <= ChecksumBlockBytes; n++ {
		if want := crc32.ChecksumIEEE(zero[:n]); zeroBlockCRCs[n] != want {
			t.Fatalf("zeroBlockCRCs[%d] = %#x, want %#x", n, zeroBlockCRCs[n], want)
		}
	}
}

// TestSeedZeroUsesTable checks a freshly created resilient file verifies
// from the first read, including a ragged tail block.
func TestSeedZeroUsesTable(t *testing.T) {
	res := NewResilience(DefaultRetryPolicy())
	// 300 elements = 2400 bytes: two full blocks and a 352-byte tail.
	res.seedZero("x.laf", 300*elemBytes)
	zero := make([]byte, 300*elemBytes)
	if block, ok := res.verifyBlocks("x.laf", 0, zero); !ok {
		t.Fatalf("zero-seeded file failed verification at block %d", block)
	}
	if _, ok := res.get("x.laf", 2); !ok {
		t.Fatal("tail block has no seeded checksum")
	}
}

// TestIncrementalEdgeCRCMatchesFullRecompute drives randomized partial
// writes through a resilient file and cross-checks every stored block
// checksum against a full recomputation from the file image — the
// incremental head+middle+tail path must be indistinguishable from
// hashing the whole block.
func TestIncrementalEdgeCRCMatchesFullRecompute(t *testing.T) {
	const elems = 1024 // 8192 bytes = 8 checksum blocks
	rng := rand.New(rand.NewSource(42))
	mem := NewMemFS()
	stats := &trace.IOStats{}
	res := NewResilience(DefaultRetryPolicy())
	d := NewResilientDisk(mem, testConfig(), stats, res)
	laf, err := d.CreateLAF("x.laf", elems)
	if err != nil {
		t.Fatal(err)
	}
	defer laf.Close()

	for iter := 0; iter < 200; iter++ {
		off := rng.Intn(elems)
		n := 1 + rng.Intn(elems-off)
		src := make([]float64, n)
		for i := range src {
			src[i] = rng.NormFloat64()
		}
		if _, err := laf.WriteChunks([]Chunk{{Off: int64(off), Len: n}}, src); err != nil {
			t.Fatal(err)
		}

		// Recompute every block checksum from the raw file image and
		// compare with the store.
		img := make([]byte, elems*elemBytes)
		if err := d.readExact(laf.file, laf.name, img, 0); err != nil {
			t.Fatal(err)
		}
		for b := int64(0); b < int64(len(img))/ChecksumBlockBytes; b++ {
			want := crc32.ChecksumIEEE(img[b*ChecksumBlockBytes : (b+1)*ChecksumBlockBytes])
			got, ok := res.get("x.laf", b)
			if !ok {
				t.Fatalf("iter %d: block %d lost its checksum", iter, b)
			}
			if got != want {
				t.Fatalf("iter %d (write [%d,+%d)): block %d stored %#x, recompute %#x",
					iter, off, n, b, got, want)
			}
		}
	}
}

// FuzzEdgeCRCPartialWrite fuzzes a single partial-block write over
// pre-existing random content and checks the stored edge checksums
// against full recomputation.
func FuzzEdgeCRCPartialWrite(f *testing.F) {
	f.Add(int64(3), 17, uint64(1))
	f.Add(int64(120), 200, uint64(2))
	f.Add(int64(0), 1, uint64(3))
	f.Add(int64(255), 1, uint64(4))
	f.Fuzz(func(t *testing.T, off int64, n int, seed uint64) {
		const elems = 256 // two checksum blocks
		if off < 0 || n <= 0 || off >= elems || int64(n) > elems-off {
			t.Skip()
		}
		rng := rand.New(rand.NewSource(int64(seed)))
		mem := NewMemFS()
		res := NewResilience(DefaultRetryPolicy())
		d := NewResilientDisk(mem, testConfig(), &trace.IOStats{}, res)
		laf, err := d.CreateLAF("x.laf", elems)
		if err != nil {
			t.Fatal(err)
		}
		defer laf.Close()

		base := make([]float64, elems)
		for i := range base {
			base[i] = rng.NormFloat64()
		}
		if _, err := laf.WriteAll(base); err != nil {
			t.Fatal(err)
		}
		src := make([]float64, n)
		for i := range src {
			src[i] = rng.NormFloat64()
		}
		if _, err := laf.WriteChunks([]Chunk{{Off: off, Len: n}}, src); err != nil {
			t.Fatal(err)
		}

		img := make([]byte, elems*elemBytes)
		if err := d.readExact(laf.file, laf.name, img, 0); err != nil {
			t.Fatal(err)
		}
		for b := int64(0); b*ChecksumBlockBytes < int64(len(img)); b++ {
			lo := b * ChecksumBlockBytes
			hi := lo + ChecksumBlockBytes
			if hi > int64(len(img)) {
				hi = int64(len(img))
			}
			want := crc32.ChecksumIEEE(img[lo:hi])
			got, ok := res.get("x.laf", b)
			if !ok {
				t.Fatalf("block %d lost its checksum", b)
			}
			if got != want {
				t.Fatalf("write [%d,+%d): block %d stored %#x, recompute %#x", off, n, b, got, want)
			}
		}
	})
}

// TestPartialWriteOverACorruptBlockFails: a write that covers a block
// only in part reads that block's old bytes verified before it writes,
// so a block corrupted at rest fails the write with a checksum mismatch
// on that block instead of having the flipped bit folded into a fresh
// checksum.
func TestPartialWriteOverACorruptBlockFails(t *testing.T) {
	mem := NewMemFS()
	res := NewResilience(RetryPolicy{MaxRetries: 2})
	d := NewResilientDisk(mem, testConfig(), &trace.IOStats{}, res)
	laf, err := d.CreateLAF("x.laf", 300) // three blocks, the last ragged
	if err != nil {
		t.Fatal(err)
	}
	defer laf.Close()
	f, err := mem.Open("x.laf")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0x40}, ChecksumBlockBytes+3); err != nil { // block 1, behind the table
		t.Fatal(err)
	}
	f.Close()
	_, err = laf.WriteChunks([]Chunk{{Off: 130, Len: 10}}, make([]float64, 10)) // inside block 1
	var ce *CorruptionError
	if !errors.As(err, &ce) || ce.File != "x.laf" || ce.Block != 1 {
		t.Fatalf("partial write over a corrupt block: %v, want a mismatch on x.laf block 1", err)
	}
}

// TestDiscardMovesNothing: transfers through Discard succeed, read
// zeros, store nothing and leave the checksum table alone, yet each is a
// file operation of the disk's fault source.
func TestDiscardMovesNothing(t *testing.T) {
	res := NewResilience(DefaultRetryPolicy())
	d := NewResilientDisk(NewMemFS(), testConfig(), &trace.IOStats{}, res)
	c := chaosOn(d, ChaosConfig{})
	buf := make([]byte, 2*ChecksumBlockBytes)
	for i := range buf {
		buf[i] = 0xff
	}
	if _, err := d.WriteChecked(Discard, "x.parity", buf[:ChecksumBlockBytes+5], 0, 4*ChecksumBlockBytes); err != nil {
		t.Fatal(err)
	}
	if _, ok := res.get("x.parity", 0); ok {
		t.Fatal("a write to Discard recorded a checksum")
	}
	if _, err := d.ReadVerified(Discard, "x.parity", buf, 0); err != nil {
		t.Fatal(err)
	}
	for i, b := range buf {
		if b != 0 {
			t.Fatalf("byte %d read from Discard = %#x, want 0", i, b)
		}
	}
	if got := c.Counts().Ops; got != 2 {
		t.Fatalf("%d file operations, want 2", got)
	}
}
