package cost

import (
	"fmt"
	"testing"

	"github.com/ooc-hpf/passion/internal/iosim"
	"github.com/ooc-hpf/passion/internal/parity"
	"github.com/ooc-hpf/passion/internal/sim"
	"github.com/ooc-hpf/passion/internal/trace"
)

// TestRecoveryClosedFormAllVictims sweeps the dead rank across a
// transpose-like geometry (two equal groups, one full block plus a tail
// per rank) and checks that the closed form reproduces the real rebuild
// for every victim — the rotated parity layout makes the cost genuinely
// victim-dependent, and the float accumulation order must match too.
func TestRecoveryClosedFormAllVictims(t *testing.T) {
	const procs = 4
	cfg := sim.Delta(procs)
	elems := map[string]int64{"x": 576, "z": 576} // 4608 bytes per rank
	bases := []string{"x", "z"}
	for dead := 0; dead < procs; dead++ {
		fs := iosim.NewMemFS()
		st := parity.NewStore(fs, cfg, procs, nil)
		for _, base := range bases {
			st.Protect(base)
			for r := 0; r < procs; r++ {
				d := iosim.NewResilientDisk(fs, cfg, &trace.IOStats{}, nil)
				d.SetParity(st)
				l, err := d.CreateLAF(fmt.Sprintf("%s.p%d.laf", base, r), elems[base])
				if err != nil {
					t.Fatal(err)
				}
				data := make([]float64, elems[base])
				for i := range data {
					data[i] = float64(i + r)
				}
				if _, err := l.WriteChunks([]iosim.Chunk{{Off: 0, Len: len(data)}}, data); err != nil {
					t.Fatal(err)
				}
			}
		}
		st.Detach()

		var groups [][]int64
		for _, base := range bases {
			fs.Remove(fmt.Sprintf("%s.p%d.laf", base, dead))
			fs.Remove(parity.ParityFileName(base, dead))
			sizes := make([]int64, procs)
			for r := range sizes {
				sizes[r] = elems[base] * iosim.FileElemBytes
			}
			groups = append(groups, sizes)
		}

		re := parity.NewStore(fs, cfg, procs, nil)
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
			s, err := re.Recover(d, fmt.Sprintf("%s.p%d.laf", base, dead), fmt.Errorf("loss"))
			if err != nil {
				t.Fatalf("dead %d recover %s: %v", dead, base, err)
			}
			sec += s
		}
		s, err := re.RebuildRank(d, dead)
		if err != nil {
			t.Fatalf("dead %d rebuild: %v", dead, err)
		}
		sec += s
		re.Detach()

		pred := RecoveryForRank(cfg, procs, groups, dead, 0)
		if pred.RebuildSeconds != sec {
			t.Errorf("dead=%d: closed form %.17g, measured %.17g", dead, pred.RebuildSeconds, sec)
		}
		var msgs int64
		for r := range comm {
			msgs += comm[r].Comm.RecoveryMessages
		}
		if msgs != pred.RebuildMessages {
			t.Errorf("dead=%d: closed-form messages %d, measured %d", dead, pred.RebuildMessages, msgs)
		}
	}
}
