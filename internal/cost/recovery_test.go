package cost

import (
	"fmt"
	"io"
	"math/rand"
	"testing"

	"github.com/ooc-hpf/passion/internal/iosim"
	"github.com/ooc-hpf/passion/internal/parity"
	"github.com/ooc-hpf/passion/internal/sim"
	"github.com/ooc-hpf/passion/internal/trace"
)

// readAll slurps a file's full contents via the plain FS interface.
func readAll(t *testing.T, fs iosim.FS, name string, bytes int64) []byte {
	t.Helper()
	f, err := fs.Open(name)
	if err != nil {
		t.Fatalf("open %s: %v", name, err)
	}
	defer f.Close()
	buf := make([]byte, bytes)
	if n, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
		t.Fatalf("read %s: %v", name, err)
	} else if int64(n) != bytes {
		t.Fatalf("read %s: %d of %d bytes", name, n, bytes)
	}
	return buf
}

// TestRecoveryClosedFormMatchesRebuild builds two parity-protected
// groups (one deliberately not a multiple of the block size), loses one
// logical disk, runs the real offline rebuild — parity.Recover per data
// file plus parity.RebuildRank for the hosted parity — and checks that
// RecoveryForRank reproduces the charged seconds and gather traffic to
// the digit, and that the reconstructed bytes are identical.
func TestRecoveryClosedFormMatchesRebuild(t *testing.T) {
	const procs = 4
	const dead = 1
	cfg := sim.Delta(procs)
	fs := iosim.NewMemFS()
	elems := map[string]int64{"a": 700, "m": 256} // sorted base order: a, m
	bases := []string{"a", "m"}

	// Build the protected groups with write-through parity maintenance.
	st := parity.NewStore(fs, cfg, procs)
	rng := rand.New(rand.NewSource(11))
	for _, base := range bases {
		sizes := make([]int64, procs)
		for r := range sizes {
			sizes[r] = elems[base] * iosim.FileElemBytes
		}
		st.Protect(base, sizes...)
		lafs := make([]*iosim.LAF, procs)
		for r := range lafs {
			d := iosim.NewResilientDisk(fs, cfg, &trace.IOStats{}, nil)
			d.SetParity(st)
			l, err := d.CreateLAF(fmt.Sprintf("%s.p%d.laf", base, r), elems[base])
			if err != nil {
				t.Fatal(err)
			}
			lafs[r] = l
		}
		for _, l := range lafs {
			data := make([]float64, elems[base])
			for i := range data {
				data[i] = rng.Float64()
			}
			if _, err := l.WriteChunks([]iosim.Chunk{{Off: 0, Len: len(data)}}, data); err != nil {
				t.Fatal(err)
			}
		}
	}
	st.Detach() // keep the files; Close would remove the parity

	// Snapshot the victim's contents, then lose its whole logical disk.
	want := map[string][]byte{}
	var groups [][]int64
	for _, base := range bases {
		name := fmt.Sprintf("%s.p%d.laf", base, dead)
		bytes := elems[base] * iosim.FileElemBytes
		want[base] = readAll(t, fs, name, bytes)
		fs.Remove(name)
		fs.Remove(parity.ParityFileName(base, dead))
		sizes := make([]int64, procs)
		for r := range sizes {
			sizes[r] = bytes
		}
		groups = append(groups, sizes)
	}

	// The real rebuild, the way the executor's pre-pass runs it: a fresh
	// store attached (trusted) to the surviving files.
	re := parity.NewStore(fs, cfg, procs)
	re.LoseDisk(dead) // the dead rank's disk, its hosted parity with it
	defer re.Detach()
	comm := make([]trace.ProcStats, procs)
	for r := 0; r < procs; r++ {
		re.SetCommSink(r, &comm[r])
	}
	var io trace.IOStats
	d := iosim.NewResilientDisk(fs, cfg, &io, nil)
	for gi, base := range bases {
		re.Protect(base)
		for r := 0; r < procs; r++ {
			re.Attach(fmt.Sprintf("%s.p%d.laf", base, r), groups[gi][r])
		}
	}
	var sec float64
	for _, base := range bases {
		s, err := re.Recover(d, fmt.Sprintf("%s.p%d.laf", base, dead), fmt.Errorf("disk loss"))
		if err != nil {
			t.Fatalf("recover %s: %v", base, err)
		}
		sec += s
	}
	s, err := re.RebuildRank(d, dead)
	if err != nil {
		t.Fatalf("rebuild rank: %v", err)
	}
	sec += s

	pred := RecoveryForRank(cfg, procs, groups, dead, 0.25)
	if pred.RebuildSeconds != sec {
		t.Errorf("RebuildSeconds closed form %v, measured %v", pred.RebuildSeconds, sec)
	}
	if got := comm[dead].Comm.RecoveryMessages; pred.RebuildMessages != got {
		t.Errorf("RebuildMessages closed form %d, measured %d", pred.RebuildMessages, got)
	}
	if got := comm[dead].Comm.RecoveryBytes; pred.RebuildMsgBytes != got {
		t.Errorf("RebuildMsgBytes closed form %d, measured %d", pred.RebuildMsgBytes, got)
	}
	if pred.DetectSeconds != 0.25 || pred.TotalSeconds() != 0.25+pred.RebuildSeconds {
		t.Errorf("detection stall not folded into the total: %+v", pred)
	}
	if io.Reconstructions != int64(len(bases)) {
		t.Errorf("Reconstructions = %d, want %d", io.Reconstructions, len(bases))
	}

	// And the rebuilt bytes are the original bytes.
	for _, base := range bases {
		name := fmt.Sprintf("%s.p%d.laf", base, dead)
		got := readAll(t, fs, name, elems[base]*iosim.FileElemBytes)
		for i := range got {
			if got[i] != want[base][i] {
				t.Fatalf("%s: reconstructed byte %d differs", name, i)
			}
		}
	}
}
