package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"strconv"
	"strings"
	"time"

	"github.com/ooc-hpf/passion/internal/collio"
	"github.com/ooc-hpf/passion/internal/dist"
	"github.com/ooc-hpf/passion/internal/exec"
	"github.com/ooc-hpf/passion/internal/iosim"
	"github.com/ooc-hpf/passion/internal/mp"
	"github.com/ooc-hpf/passion/internal/oocarray"
	"github.com/ooc-hpf/passion/internal/sim"
	"github.com/ooc-hpf/passion/internal/trace"
)

// The probes time calls into each layer's public functions from here,
// outside the program: every call is a span, and a layer's metric is the
// mean of its spans. They take their shapes (N, P, slab size) from the
// workload's own job specs.

// repeat calls f until d has passed, at least once.
func repeat(d time.Duration, f func() error) error {
	for start := time.Now(); ; {
		if err := f(); err != nil {
			return err
		}
		if time.Since(start) >= d {
			return nil
		}
	}
}

// probePipeline runs the compile pipeline over the specs for d.
func probePipeline(rec *recorder, specs []jobSpec, d time.Duration) error {
	return repeat(d, func() error {
		for _, s := range specs {
			if _, err := pipeline(rec, 0, s.tuple()); err != nil {
				return err
			}
		}
		return nil
	})
}

// jobTimeout is the deadline the service puts on a job by default; the
// exec.run span runs under it as a served job does.
const jobTimeout = 60 * time.Second

// probeExec executes every spec directly for d, round-robin over four
// variants so machine noise falls on all alike: under a deadline context
// (as the service calls it), under a background context, with parity
// on, and with a tracer on (plus the export of its timeline).
func probeExec(rec *recorder, specs []jobSpec, refs []*reference, d time.Duration, out metricSet) error {
	var spans, parityWrites, runs int64
	err := repeat(d, func() error {
		for i, s := range specs {
			job := s.label()
			prog, mach := refs[i].art.res.Program, refs[i].mach
			root := rec.begin("exec", job, 0)
			run := func(name string, ctx context.Context, opts exec.Options) (*exec.Result, error) {
				id := rec.begin(name, job, root)
				res, err := exec.RunCtx(ctx, prog, mach, opts)
				rec.end(id)
				if err != nil {
					return nil, fmt.Errorf("%s %s: %w", name, job, err)
				}
				if res.Stats.ElapsedSeconds() != refs[i].snap.ElapsedSeconds {
					return nil, fmt.Errorf("%s %s: sim_s %v differs from the reference run's %v",
						name, job, res.Stats.ElapsedSeconds(), refs[i].snap.ElapsedSeconds)
				}
				return res, res.Close()
			}
			ctx, cancel := context.WithTimeout(context.Background(), jobTimeout)
			_, err := run("exec.run", ctx, s.execOptions())
			cancel()
			if err != nil {
				return err
			}
			if _, err := run("exec.run_bg", context.Background(), s.execOptions()); err != nil {
				return err
			}

			opts := s.execOptions()
			opts.Parity = true
			id := rec.begin("exec.run_parity", job, root)
			pres, err := exec.Run(prog, mach, opts)
			rec.end(id)
			if err != nil {
				return fmt.Errorf("parity run %s: %w", job, err)
			}
			parityWrites += pres.Stats.TotalIO().ParityWrites
			if err := pres.Close(); err != nil {
				return err
			}

			opts = s.execOptions()
			opts.Trace = trace.NewTracer(s.req.Procs)
			if _, err := run("exec.run_traced", context.Background(), opts); err != nil {
				return err
			}
			spans += int64(len(opts.Trace.Spans()))
			id = rec.begin("trace.export", job, root)
			err = opts.Trace.ExportChromeTrace(io.Discard)
			rec.end(id)
			if err != nil {
				return err
			}
			rec.end(root)
			runs++
		}
		return nil
	})
	if err != nil {
		return err
	}
	bg := rec.meanUS("exec.run_bg")
	out["exec.run_ms"] = rec.meanUS("exec.run") / 1e3
	out["exec.run_bg_ms"] = bg / 1e3
	out["parity.overhead_pct"] = (rec.meanUS("exec.run_parity") - bg) / bg * 100
	out["parity.writes"] = float64(parityWrites) / float64(runs)
	out["trace.overhead_pct"] = (rec.meanUS("exec.run_traced") - bg) / bg * 100
	out["trace.spans_per_job"] = float64(spans) / float64(runs)
	out["trace.export_ms"] = rec.meanUS("trace.export") / 1e3
	return nil
}

// Probe sizes: enough repetitions for a stable mean, few enough that a
// traced pass stays within its run length.
const (
	probeSlabs      = 32   // slabs read and written per oocarray probe
	probeChunks     = 64   // chunk reads and writes per iosim probe
	pingPongRounds  = 256  // round trips per mp.sendrecv probe
	pingPongElems   = 1024 // elements per message
	allToAllRounds  = 16
	allToAllElems   = 64 // elements sent to each peer
	redistributions = 2
)

// probeRuntime times the runtime layers under exec at the shapes of
// spec s: slab and chunk I/O at the plan's slab size, a two-rank
// ping-pong, an AllToAll at the spec's P, and a collective transpose at
// the spec's N and P.
func probeRuntime(rec *recorder, s jobSpec, ref *reference, out metricSet) error {
	job := s.label()
	procs, n := s.req.Procs, s.req.N
	root := rec.begin("runtime", job, 0)
	defer rec.end(root)

	// Rank 0's share of the plan's first array, on its own disk.
	arr0 := ref.art.res.Program.Arrays[0]
	dmap, err := arr0.DistArray(procs)
	if err != nil {
		return err
	}
	var (
		ioStats trace.IOStats
		clock   sim.Clock
	)
	disk := iosim.NewDisk(iosim.NewMemFS(), ref.mach, &ioStats)
	arr, err := oocarray.New(disk, dmap, 0, &clock, oocarray.Options{})
	if err != nil {
		return err
	}
	defer arr.Close()
	slabs := arr.Slabbing(arr0.SlabDim, arr0.SlabElems)
	for i := 0; i < probeSlabs; i++ {
		id := rec.begin("oocarray.read_slab", job, root)
		slab, err := arr.ReadSlab(slabs, i%slabs.Count)
		rec.end(id)
		if err != nil {
			return err
		}
		id = rec.begin("oocarray.write_slab", job, root)
		err = arr.WriteSection(slab)
		rec.end(id)
		arr.Recycle(slab)
		if err != nil {
			return err
		}
	}

	chunkLen := arr0.SlabElems
	if local := arr.LocalElems(); chunkLen > local {
		chunkLen = local
	}
	laf, err := disk.CreateLAF("probe.laf", int64(chunkLen))
	if err != nil {
		return err
	}
	defer laf.Close()
	chunk := []iosim.Chunk{{Off: 0, Len: chunkLen}}
	buf := make([]float64, chunkLen)
	for i := 0; i < probeChunks; i++ {
		id := rec.begin("iosim.write_chunk", job, root)
		_, err := laf.WriteChunks(chunk, buf)
		rec.end(id)
		if err != nil {
			return err
		}
		id = rec.begin("iosim.read_chunk", job, root)
		_, err = laf.ReadChunks(chunk, buf)
		rec.end(id)
		if err != nil {
			return err
		}
	}

	payload := make([]float64, pingPongElems)
	id := rec.begin("mp.sendrecv", job, root)
	_, err = mp.Run(sim.Delta(2), func(p *mp.Proc) error {
		peer := 1 - p.Rank()
		for i := 0; i < pingPongRounds; i++ {
			if p.Rank() == 0 {
				p.Send(peer, 7, payload)
				mp.ReleaseBuf(p.Recv(peer, 8))
			} else {
				in := p.Recv(peer, 7)
				p.Send(peer, 8, in)
				mp.ReleaseBuf(in)
			}
		}
		return nil
	})
	sendrecv := rec.end(id)
	if err != nil {
		return err
	}

	id = rec.begin("mp.alltoall", job, root)
	_, err = mp.Run(ref.mach, func(p *mp.Proc) error {
		parts := make([][]float64, procs)
		for d := range parts {
			parts[d] = make([]float64, allToAllElems)
		}
		for i := 0; i < allToAllRounds; i++ {
			for _, got := range p.AllToAll(9, parts) {
				mp.ReleaseBuf(got)
			}
		}
		return nil
	})
	alltoall := rec.end(id)
	if err != nil {
		return err
	}

	for i := 0; i < redistributions; i++ {
		if err := probeRedistribute(rec, root, job, n, procs, s.req.MemElems); err != nil {
			return err
		}
	}

	out["oocarray.read_slab_us"] = rec.meanUS("oocarray.read_slab")
	out["oocarray.write_slab_us"] = rec.meanUS("oocarray.write_slab")
	out["iosim.read_chunk_us"] = rec.meanUS("iosim.read_chunk")
	out["iosim.write_chunk_us"] = rec.meanUS("iosim.write_chunk")
	out["mp.sendrecv_us"] = float64(sendrecv.Nanoseconds()) / 1e3 / pingPongRounds
	out["mp.alltoall_us"] = float64(alltoall.Nanoseconds()) / 1e3 / allToAllRounds
	out["collio.redistribute_ms"] = rec.meanUS("collio.redistribute") / 1e3
	return nil
}

// probeRedistribute transposes a column-block n×n array over procs ranks
// through two-phase collective I/O with real data. The span runs on
// rank 0 between two barriers, so the unaccounted fill stays outside.
func probeRedistribute(rec *recorder, parent int, job string, n, procs, memElems int) error {
	fs := iosim.NewMemFS()
	fill := fillSeq(n)
	_, err := mp.Run(sim.Delta(procs), func(p *mp.Proc) error {
		disk := iosim.NewDisk(fs, p.Config(), &p.Stats().IO)
		open := func(name string) (*oocarray.Array, error) {
			dmap, err := dist.NewArray(name, dist.NewCollapsed(n), dist.NewBlock(n, procs))
			if err != nil {
				return nil, err
			}
			return oocarray.New(disk, dmap, p.Rank(), p.Clock(), oocarray.Options{})
		}
		src, err := open("src")
		if err != nil {
			return err
		}
		defer src.Close()
		dst, err := open("dst")
		if err != nil {
			return err
		}
		defer dst.Close()
		if err := src.FillGlobal(fill); err != nil {
			return err
		}
		p.Barrier(21)
		id := 0
		if p.Rank() == 0 {
			id = rec.begin("collio.redistribute", job, parent)
		}
		err = oocarray.RedistributeVia(p, src, dst, memElems, 22,
			func(gi, gj int) (int, int) { return gj, gi }, collio.TwoPhase)
		p.Barrier(23)
		if p.Rank() == 0 {
			rec.end(id)
		}
		return err
	})
	return err
}

// promMean reads the mean of one histogram, in milliseconds, from the
// server's Prometheus exposition.
func promMean(exposition []byte, name string) (float64, error) {
	var sum, n float64
	var err error
	for _, line := range strings.Split(string(exposition), "\n") {
		if v, ok := strings.CutPrefix(line, name+"_sum "); ok {
			sum, err = strconv.ParseFloat(v, 64)
		} else if v, ok := strings.CutPrefix(line, name+"_count "); ok {
			n, err = strconv.ParseFloat(v, 64)
		}
		if err != nil {
			return 0, fmt.Errorf("%s: %w", name, err)
		}
	}
	if n == 0 {
		return 0, nil
	}
	return sum / n * 1e3, nil
}

// serveMetrics reads the service's own view of the jobs it ran.
func (in *instance) serveMetrics(out metricSet) error {
	var buf bytes.Buffer
	if err := in.srv.WritePrometheus(&buf); err != nil {
		return err
	}
	for metric, hist := range map[string]string{
		"serve.queue_wait_ms":  "passion_serve_queue_wait_seconds",
		"serve.job_latency_ms": "passion_serve_job_latency_seconds",
		"serve.compile_ms":     "passion_serve_compile_seconds",
	} {
		v, err := promMean(buf.Bytes(), hist)
		if err != nil {
			return err
		}
		out[metric] = v
	}
	out["serve.cache_hit_ratio"] = in.srv.MetricsSnapshot().Cache.HitRatio
	return nil
}
