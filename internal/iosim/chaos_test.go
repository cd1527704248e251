package iosim

import (
	"bytes"
	"errors"
	"testing"

	"github.com/ooc-hpf/passion/internal/mp"
)

// chaosOn gives d a fault source for rank 0 with the drawn model cfg and
// the scheduled faults, and returns the source.
func chaosOn(d *Disk, cfg ChaosConfig, faults ...mp.Fault) *Chaos {
	return chaosOnRank(d, 0, cfg, faults...)
}

func chaosOnRank(d *Disk, rank int, cfg ChaosConfig, faults ...mp.Fault) *Chaos {
	c := new(Chaos)
	c.Reset(cfg, rank, faults)
	d.SetChaos(c)
	return c
}

// chaosOpSequence runs a fixed operation sequence through a disk of the
// given rank and returns the injected-fault counts plus the final
// read-back (nil when a permanent fault aborted the sequence).
func chaosOpSequence(t *testing.T, rank int, cfg ChaosConfig) (ChaosCounts, []byte) {
	t.Helper()
	d := NewDisk(NewMemFS(), testConfig(), nil)
	c := chaosOnRank(d, rank, cfg)
	var final []byte
	f, err := d.Create("x.laf")
	if err == nil {
		payload := make([]byte, 256)
		for i := range payload {
			payload[i] = byte(i)
		}
		for k := 0; k < 8; k++ {
			d.WriteAt(f, "x.laf", payload, int64(k)*256)
		}
		buf := make([]byte, 256)
		for k := 0; k < 8; k++ {
			if n, err := d.ReadAt(f, "x.laf", buf, int64(k)*256); err == nil && n == len(buf) {
				final = append([]byte(nil), buf...)
			}
		}
		f.Close()
	}
	return c.Counts(), final
}

// TestChaosDeterministicUnderSeed: the draws are a function of the seed
// and of the rank that issues the operations, nothing else.
func TestChaosDeterministicUnderSeed(t *testing.T) {
	cfg := ChaosConfig{Seed: 42, PTransient: 0.2, PCorrupt: 0.1, PShortRead: 0.1, PShortWrite: 0.1}
	c1, b1 := chaosOpSequence(t, 0, cfg)
	c2, b2 := chaosOpSequence(t, 0, cfg)
	if c1 != c2 {
		t.Fatalf("same seed, different fault counts: %+v vs %+v", c1, c2)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("same seed, different data effects")
	}
	c3, _ := chaosOpSequence(t, 0, ChaosConfig{Seed: 43, PTransient: 0.2, PCorrupt: 0.1, PShortRead: 0.1, PShortWrite: 0.1})
	if c1 == c3 {
		t.Fatalf("different seeds produced identical fault counts %+v (suspicious)", c1)
	}
	c4, _ := chaosOpSequence(t, 1, cfg)
	if c1 == c4 {
		t.Fatalf("ranks 0 and 1 drew identical fault counts %+v (suspicious)", c1)
	}
}

func TestChaosScheduledPermanentFault(t *testing.T) {
	d := NewDisk(NewMemFS(), testConfig(), nil)
	c := chaosOn(d, ChaosConfig{}, mp.Fault{Op: 1, Kind: mp.IOPermanent})
	f, err := d.Create("x") // op 0
	if err != nil {
		t.Fatal(err)
	}
	_, err = d.WriteAt(f, "x", []byte{1, 2, 3}, 0) // op 1: scheduled fault
	if err == nil {
		t.Fatal("scheduled permanent fault did not fire")
	}
	if !errors.Is(err, ErrInjected) {
		t.Fatalf("permanent fault should wrap ErrInjected, got %v", err)
	}
	if IsTransient(err) {
		t.Fatalf("permanent fault classified transient: %v", err)
	}
	if _, err := d.WriteAt(f, "x", []byte{1, 2, 3}, 0); err != nil { // op 2: clean
		t.Fatalf("op after the scheduled fault should succeed, got %v", err)
	}
	if c := c.Counts(); c.Permanent != 1 || c.Ops != 3 {
		t.Fatalf("counts = %+v, want 1 permanent of 3 ops", c)
	}
}

// TestChaosCountsEveryFileOfTheRank: the schedule numbers the rank's
// operations across all its files, whichever file an operation touches.
func TestChaosCountsEveryFileOfTheRank(t *testing.T) {
	d := NewDisk(NewMemFS(), testConfig(), nil)
	chaosOn(d, ChaosConfig{}, mp.Fault{Op: 1, Kind: mp.IOTransient})
	if _, err := d.Create("x"); err != nil { // op 0
		t.Fatal(err)
	}
	_, err := d.Create("y") // op 1
	if err == nil || !IsTransient(err) {
		t.Fatalf("want transient error on the rank's second operation, got %v", err)
	}
}

// TestChaosScheduledFaultWaitsForAnOperationItAppliesTo: a read-path
// fault scheduled on a write fires on the rank's next read.
func TestChaosScheduledFaultWaitsForAnOperationItAppliesTo(t *testing.T) {
	d := NewDisk(NewMemFS(), testConfig(), nil)
	c := chaosOn(d, ChaosConfig{}, mp.Fault{Op: 1, Kind: mp.IOShortRead})
	f, err := d.Create("x") // op 0
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.WriteAt(f, "x", make([]byte, 8), 0); err != nil { // op 1: a write
		t.Fatal(err)
	}
	n, err := d.ReadAt(f, "x", make([]byte, 8), 0) // op 2: the short read
	if err == nil || !IsTransient(err) || n != 4 {
		t.Fatalf("short read: %d bytes, %v; want 4 bytes and a transient error", n, err)
	}
	if got := c.Counts(); got.ShortReads != 1 || got.Ops != 3 {
		t.Fatalf("counts = %+v, want 1 short read of 3 ops", got)
	}
}

// TestChaosOutageFailsEveryLaterOperation: an outage fails its operation
// and every later one of the rank, permanently.
func TestChaosOutageFailsEveryLaterOperation(t *testing.T) {
	d := NewDisk(NewMemFS(), testConfig(), nil)
	c := chaosOn(d, ChaosConfig{}, mp.Fault{Op: 2, Kind: mp.IOOutage})
	f, err := d.Create("x") // op 0
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.WriteAt(f, "x", []byte{1}, 0); err != nil { // op 1
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := d.ReadAt(f, "x", make([]byte, 1), 0); !errors.Is(err, ErrInjected) {
			t.Fatalf("read %d after the outage: %v, want a permanent injected fault", i, err)
		}
	}
	if _, err := d.Open("x"); !errors.Is(err, ErrInjected) {
		t.Fatalf("open after the outage: %v, want a permanent injected fault", err)
	}
	if got := c.Counts(); got.Permanent != 4 || got.Ops != 6 {
		t.Fatalf("counts = %+v, want 4 permanent of 6 ops", got)
	}
}

func TestChaosShortReadAndWriteAreTransient(t *testing.T) {
	d := NewDisk(NewMemFS(), testConfig(), nil)
	chaosOn(d, ChaosConfig{},
		mp.Fault{Op: 1, Kind: mp.IOShortWrite},
		mp.Fault{Op: 3, Kind: mp.IOShortRead})
	f, err := d.Create("x") // op 0
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte{1, 2, 3, 4, 5, 6, 7, 8}
	n, err := d.WriteAt(f, "x", payload, 0) // op 1: torn write
	if err == nil || !IsTransient(err) {
		t.Fatalf("torn write should return a transient error, got %v", err)
	}
	if n != len(payload)/2 {
		t.Fatalf("torn write reported %d bytes, want %d", n, len(payload)/2)
	}
	if _, err := d.WriteAt(f, "x", payload, 0); err != nil { // op 2: retry succeeds
		t.Fatal(err)
	}
	buf := make([]byte, 8)
	n, err = d.ReadAt(f, "x", buf, 0) // op 3: short read
	if err == nil || !IsTransient(err) {
		t.Fatalf("short read should return a transient error, got %v", err)
	}
	if n != len(buf)/2 {
		t.Fatalf("short read delivered %d bytes, want %d", n, len(buf)/2)
	}
	if _, err := d.ReadAt(f, "x", buf, 0); err != nil { // op 4: retry succeeds
		t.Fatal(err)
	}
	if !bytes.Equal(buf, payload) {
		t.Fatalf("after retries, read %v want %v", buf, payload)
	}
}

func TestChaosCorruptionFlipsExactlyOneBit(t *testing.T) {
	d := NewDisk(NewMemFS(), testConfig(), nil)
	chaosOn(d, ChaosConfig{Seed: 7}, mp.Fault{Op: 2, Kind: mp.IOCorrupt})
	f, err := d.Create("x") // op 0
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 64)
	for i := range payload {
		payload[i] = byte(i * 3)
	}
	if _, err := d.WriteAt(f, "x", payload, 0); err != nil { // op 1
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	if _, err := d.ReadAt(f, "x", buf, 0); err != nil { // op 2: corrupted, silently
		t.Fatal(err)
	}
	diffBits := 0
	for i := range buf {
		x := buf[i] ^ payload[i]
		for ; x != 0; x &= x - 1 {
			diffBits++
		}
	}
	if diffBits != 1 {
		t.Fatalf("corruption flipped %d bits, want exactly 1", diffBits)
	}
	if _, err := d.ReadAt(f, "x", buf, 0); err != nil { // op 3: clean again
		t.Fatal(err)
	}
	if !bytes.Equal(buf, payload) {
		t.Fatalf("file content itself was altered; corruption should be read-path only")
	}
}

func TestIsTransientClassification(t *testing.T) {
	if IsTransient(nil) {
		t.Fatal("nil must not be transient")
	}
	if IsTransient(errors.New("plain")) {
		t.Fatal("plain errors must not be transient")
	}
	if !IsTransient(MarkTransient(errors.New("hiccup"))) {
		t.Fatal("MarkTransient must classify transient")
	}
	if !IsTransient(&CorruptionError{File: "x", Block: 0}) {
		t.Fatal("read-path corruption must be transient (re-read may repair)")
	}
	ex := &ExhaustedError{Op: "read", File: "x", Attempts: 3, Last: MarkTransient(errors.New("hiccup"))}
	if IsTransient(ex) {
		t.Fatal("an exhausted retry budget is permanent even over a transient cause")
	}
	var target *ExhaustedError
	if !errors.As(error(ex), &target) {
		t.Fatal("errors.As must find ExhaustedError")
	}
}
