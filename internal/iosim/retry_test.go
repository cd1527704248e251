package iosim

import (
	"errors"
	"testing"

	"github.com/ooc-hpf/passion/internal/mp"
	"github.com/ooc-hpf/passion/internal/sim"
	"github.com/ooc-hpf/passion/internal/trace"
)

func testConfig() sim.Config {
	cfg := sim.Delta(2)
	return cfg
}

// TestResilientReadRetriesTransient injects a transient fault on a data
// read and checks the resilient disk retries it to success, charging the
// backoff to the returned simulated duration and the stats counters.
func TestResilientReadRetriesTransient(t *testing.T) {
	mem := NewMemFS()
	// Op 0 create, 1 truncate, 2 write; op 3 is the first read.
	cfg := ChaosConfig{}
	stats := &trace.IOStats{}
	res := NewResilience(DefaultRetryPolicy())
	d := NewResilientDisk(mem, testConfig(), stats, res)
	chaosOn(d, cfg, mp.Fault{Op: 3, Kind: mp.IOTransient})
	laf, err := d.CreateLAF("x.laf", 64)
	if err != nil {
		t.Fatal(err)
	}
	defer laf.Close()
	src := make([]float64, 64)
	for i := range src {
		src[i] = float64(i) + 0.5
	}
	if _, err := laf.WriteAll(src); err != nil {
		t.Fatal(err)
	}
	cleanSec := stats.Seconds
	got, sec, err := laf.ReadAll()
	if err != nil {
		t.Fatalf("read with one transient fault should succeed after retry: %v", err)
	}
	for i := range src {
		if got[i] != src[i] {
			t.Fatalf("element %d: %g != %g", i, got[i], src[i])
		}
	}
	if stats.Retries == 0 || stats.RetrySeconds <= 0 {
		t.Fatalf("retry counters not surfaced: %+v", stats)
	}
	if stats.GiveUps != 0 {
		t.Fatalf("no give-up expected: %+v", stats)
	}
	if sec <= 0 {
		t.Fatalf("returned duration %g should include the transfer", sec)
	}
	// The backoff is charged into both the op duration and the stats.
	if stats.Seconds-cleanSec < stats.RetrySeconds {
		t.Fatalf("accounted seconds %.6f do not include the %.6f retry backoff",
			stats.Seconds-cleanSec, stats.RetrySeconds)
	}
}

// TestResilientGivesUpAfterBudget drives every operation to fail
// transiently and checks the typed permanent error.
func TestResilientGivesUpAfterBudget(t *testing.T) {
	mem := NewMemFS()
	cfg := ChaosConfig{PTransient: 1}
	stats := &trace.IOStats{}
	res := NewResilience(RetryPolicy{MaxRetries: 3, BaseBackoff: 1e-3, MaxBackoff: 4e-3})
	d := NewResilientDisk(mem, testConfig(), stats, res)
	chaosOn(d, cfg)
	_, err := d.CreateLAF("x.laf", 8)
	if err == nil {
		t.Fatal("create with 100% transient faults must exhaust the retry budget")
	}
	var ex *ExhaustedError
	if !errors.As(err, &ex) {
		t.Fatalf("want ExhaustedError, got %T: %v", err, err)
	}
	if ex.Attempts != 4 {
		t.Fatalf("attempts = %d, want 1 + 3 retries", ex.Attempts)
	}
	if IsTransient(err) {
		t.Fatal("an exhausted budget must classify permanent")
	}
	if stats.GiveUps == 0 {
		t.Fatalf("give-up not counted: %+v", stats)
	}
}

// TestChecksumDetectsAtRestCorruption flips a bit directly in the backing
// store (corruption at rest) and checks the read surfaces a typed
// corruption error instead of silently returning bad data.
func TestChecksumDetectsAtRestCorruption(t *testing.T) {
	mem := NewMemFS()
	stats := &trace.IOStats{}
	res := NewResilience(RetryPolicy{MaxRetries: 2, BaseBackoff: 1e-3, MaxBackoff: 4e-3})
	d := NewResilientDisk(mem, testConfig(), stats, res)
	laf, err := d.CreateLAF("x.laf", 64)
	if err != nil {
		t.Fatal(err)
	}
	defer laf.Close()
	src := make([]float64, 64)
	for i := range src {
		src[i] = float64(i)
	}
	if _, err := laf.WriteAll(src); err != nil {
		t.Fatal(err)
	}
	// Flip one bit behind the resilient layer's back.
	f, err := mem.Open("x.laf")
	if err != nil {
		t.Fatal(err)
	}
	b := make([]byte, 1)
	if _, err := f.ReadAt(b, 100); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x10
	if _, err := f.WriteAt(b, 100); err != nil {
		t.Fatal(err)
	}
	f.Close()

	_, _, err = laf.ReadAll()
	if err == nil {
		t.Fatal("corrupted-at-rest data must never be returned silently")
	}
	var ex *ExhaustedError
	if !errors.As(err, &ex) {
		t.Fatalf("want ExhaustedError over the corruption, got %T: %v", err, err)
	}
	var ce *CorruptionError
	if !errors.As(err, &ce) {
		t.Fatalf("want CorruptionError in the chain, got %v", err)
	}
	if stats.Corruptions == 0 || stats.GiveUps == 0 {
		t.Fatalf("corruption/give-up not counted: %+v", stats)
	}
}

// TestChecksumRepairsReadPathCorruption injects a transient flipped bit
// on the read path and checks the resilient read detects it via checksum
// and repairs it by re-reading.
func TestChecksumRepairsReadPathCorruption(t *testing.T) {
	mem := NewMemFS()
	// Op 0 create, 1 truncate, 2 write, 3 the corrupted read.
	cfg := ChaosConfig{Seed: 3}
	stats := &trace.IOStats{}
	res := NewResilience(DefaultRetryPolicy())
	d := NewResilientDisk(mem, testConfig(), stats, res)
	chaosOn(d, cfg, mp.Fault{Op: 3, Kind: mp.IOCorrupt})
	laf, err := d.CreateLAF("x.laf", 64)
	if err != nil {
		t.Fatal(err)
	}
	defer laf.Close()
	src := make([]float64, 64)
	for i := range src {
		src[i] = 1.0 / float64(i+1)
	}
	if _, err := laf.WriteAll(src); err != nil {
		t.Fatal(err)
	}
	got, _, err := laf.ReadAll()
	if err != nil {
		t.Fatalf("read-path corruption should be repaired by retry: %v", err)
	}
	for i := range src {
		if got[i] != src[i] {
			t.Fatalf("element %d differs after repair: %g != %g", i, got[i], src[i])
		}
	}
	if stats.Corruptions == 0 {
		t.Fatalf("detected corruption not counted: %+v", stats)
	}
	if stats.Retries == 0 {
		t.Fatalf("the repairing re-read is a retry: %+v", stats)
	}
}

// TestFreshFileVerifiesAgainstZeroChecksums reads a never-written file
// through the resilient layer; the zero-seeded checksums must hold.
func TestFreshFileVerifiesAgainstZeroChecksums(t *testing.T) {
	d := NewResilientDisk(NewMemFS(), testConfig(), nil, NewResilience(DefaultRetryPolicy()))
	laf, err := d.CreateLAF("x.laf", 200) // 1600 bytes: a partial tail block
	if err != nil {
		t.Fatal(err)
	}
	defer laf.Close()
	got, _, err := laf.ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range got {
		if v != 0 {
			t.Fatalf("fresh element %d = %g, want 0", i, v)
		}
	}
}

// TestTornWriteRetriedAndChecksummed tears a data write; the retry must
// leave the file and the checksum store consistent, including the
// partially covered edge blocks.
func TestTornWriteRetriedAndChecksummed(t *testing.T) {
	mem := NewMemFS()
	// Op 0 create, 1 truncate; op 2 is the torn data write.
	cfg := ChaosConfig{}
	stats := &trace.IOStats{}
	res := NewResilience(DefaultRetryPolicy())
	d := NewResilientDisk(mem, testConfig(), stats, res)
	chaosOn(d, cfg, mp.Fault{Op: 2, Kind: mp.IOShortWrite})
	laf, err := d.CreateLAF("x.laf", 300)
	if err != nil {
		t.Fatal(err)
	}
	defer laf.Close()
	// An unaligned run: starts and ends inside checksum blocks.
	src := make([]float64, 100)
	for i := range src {
		src[i] = float64(i) * 1.25
	}
	if _, err := laf.WriteChunks([]Chunk{{Off: 37, Len: 100}}, src); err != nil {
		t.Fatalf("torn write should be retried: %v", err)
	}
	if stats.Retries == 0 {
		t.Fatalf("torn write retry not counted: %+v", stats)
	}
	got := make([]float64, 100)
	if _, err := laf.ReadChunks([]Chunk{{Off: 37, Len: 100}}, got); err != nil {
		t.Fatalf("read-back after torn-write recovery: %v", err)
	}
	for i := range src {
		if got[i] != src[i] {
			t.Fatalf("element %d: %g != %g", i, got[i], src[i])
		}
	}
}

// TestBackoffSequence pins the exact backoff schedule under one cap
// rule: exponential doubling from BaseBackoff, clamped to MaxBackoff
// when (and only when) MaxBackoff is positive.
func TestBackoffSequence(t *testing.T) {
	cases := []struct {
		name string
		pol  RetryPolicy
		want []float64
	}{
		{
			name: "capped",
			pol:  RetryPolicy{MaxRetries: 10, BaseBackoff: 1e-3, MaxBackoff: 4e-3},
			want: []float64{1e-3, 2e-3, 4e-3, 4e-3, 4e-3},
		},
		{
			name: "default policy",
			pol:  DefaultRetryPolicy(),
			want: []float64{1e-3, 2e-3, 4e-3, 8e-3, 16e-3, 16e-3, 16e-3},
		},
		{
			name: "unlimited (MaxBackoff=0) keeps doubling",
			pol:  RetryPolicy{MaxRetries: 10, BaseBackoff: 1e-3},
			want: []float64{1e-3, 2e-3, 4e-3, 8e-3, 16e-3, 32e-3, 64e-3, 128e-3},
		},
		{
			name: "negative MaxBackoff behaves like unlimited",
			pol:  RetryPolicy{MaxRetries: 10, BaseBackoff: 1e-3, MaxBackoff: -1},
			want: []float64{1e-3, 2e-3, 4e-3, 8e-3},
		},
		{
			name: "base above the cap clamps immediately",
			pol:  RetryPolicy{MaxRetries: 10, BaseBackoff: 8e-3, MaxBackoff: 2e-3},
			want: []float64{2e-3, 2e-3, 2e-3},
		},
	}
	for _, tc := range cases {
		for i, w := range tc.want {
			if got := tc.pol.Backoff(i); got != w {
				t.Fatalf("%s: Backoff(%d) = %g, want %g", tc.name, i, got, w)
			}
		}
	}
}
