package main

import (
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ooc-hpf/passion/internal/bufpool"
)

// timedJob is one completed job: when it finished, counted from the
// start of its segment, and the latency its client observed.
type timedJob struct{ end, lat time.Duration }

// segment is the outcome of one closed-loop drive.
type segment struct {
	done    []timedJob // every job, in completion order
	failed  int
	errs    []error // the first few failures, for the report
	elapsed time.Duration

	allocBytes, mallocs uint64
	gcPause             time.Duration
	pool                bufpool.Stats // arena traffic during the segment
}

func (s *segment) jobs() int { return len(s.done) }

func (s *segment) meanMS() float64 {
	return s.elapsed.Seconds() * 1e3 / float64(s.jobs())
}

// percentileMS is the nearest-rank percentile of the jobs' latencies.
func percentileMS(jobs []timedJob, p float64) float64 {
	lat := make([]time.Duration, len(jobs))
	for i, j := range jobs {
		lat[i] = j.lat
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	i := int(math.Ceil(p*float64(len(lat)))) - 1
	if i < 0 {
		i = 0
	}
	return float64(lat[i].Nanoseconds()) / 1e6
}

func (s *segment) percentileMS(p float64) float64 { return percentileMS(s.done, p) }

// runParts is the number of consecutive parts a run's timings are taken
// over. With the 100 jobs a run has at least, a part holds five.
const runParts = 20

// medianOfParts cuts the segment into runParts consecutive parts of
// equal job count and returns, for throughput and median latency, the
// median of the parts' values. The machine's speed wanders and now and
// then freezes for a good part of a second; freezes that touch fewer
// than half the parts cannot move a median of parts, where they would
// move a whole-run mean.
func (s *segment) medianOfParts() (jobsPerS, p50MS float64) {
	var rate, p50 []float64
	var from time.Duration
	for i := 0; i < runParts; i++ {
		part := s.done[i*len(s.done)/runParts : (i+1)*len(s.done)/runParts]
		if len(part) == 0 {
			continue
		}
		to := part[len(part)-1].end
		rate = append(rate, float64(len(part))/(to-from).Seconds())
		p50 = append(p50, percentileMS(part, 0.50))
		from = to
	}
	_, jobsPerS, _ = quartiles(rate)
	_, p50MS, _ = quartiles(p50)
	return jobsPerS, p50MS
}

// drive runs the instance's jobs from clients closed-loop clients for d,
// and until at least minJobs have completed. Jobs that fail count as
// failed and still count as attempted.
func drive(in *instance, rec *recorder, clients int, d time.Duration, minJobs int) *segment {
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	poolBefore := bufpool.Snapshot()

	var (
		seg      segment
		mu       sync.Mutex
		wg       sync.WaitGroup
		started  atomic.Int64
		start    = time.Now()
		deadline = start.Add(d)
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var done []timedJob
			for {
				// Claim a job before looking at the clock, so exactly
				// minJobs run however short d is.
				n := started.Add(1)
				if n > int64(minJobs) && !time.Now().Before(deadline) {
					break
				}
				t0 := time.Now()
				err := in.job(rec)
				t1 := time.Now()
				done = append(done, timedJob{end: t1.Sub(start), lat: t1.Sub(t0)})
				if err != nil {
					mu.Lock()
					seg.failed++
					if len(seg.errs) < 5 {
						seg.errs = append(seg.errs, err)
					}
					mu.Unlock()
				}
			}
			mu.Lock()
			seg.done = append(seg.done, done...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	seg.elapsed = time.Since(start)

	runtime.ReadMemStats(&after)
	poolAfter := bufpool.Snapshot()
	seg.allocBytes = after.TotalAlloc - before.TotalAlloc
	seg.mallocs = after.Mallocs - before.Mallocs
	seg.gcPause = time.Duration(after.PauseTotalNs - before.PauseTotalNs)
	seg.pool = bufpool.Stats{Gets: poolAfter.Gets - poolBefore.Gets, Hits: poolAfter.Hits - poolBefore.Hits}
	sort.Slice(seg.done, func(i, j int) bool { return seg.done[i].end < seg.done[j].end })
	return &seg
}

// add merges another segment of the same traffic into s.
func (s *segment) add(o *segment) {
	for _, j := range o.done {
		j.end += s.elapsed
		s.done = append(s.done, j)
	}
	s.failed += o.failed
	s.errs = append(s.errs, o.errs...)
	s.elapsed += o.elapsed
	s.allocBytes += o.allocBytes
	s.mallocs += o.mallocs
	s.gcPause += o.gcPause
	s.pool.Gets += o.pool.Gets
	s.pool.Hits += o.pool.Hits
}

// firstError summarizes a segment's failures.
func (s *segment) firstError() error {
	if s.failed == 0 {
		return nil
	}
	return fmt.Errorf("%d of %d jobs failed, first: %w", s.failed, s.jobs(), s.errs[0])
}

// hostSampler polls the runtime every 10 ms for the peaks a before/after
// reading cannot see.
type hostSampler struct {
	stop chan struct{}
	done chan struct{}

	heapInuse  uint64
	goroutines uint64
}

func startHostSampler() *hostSampler {
	h := &hostSampler{stop: make(chan struct{}), done: make(chan struct{})}
	samples := []metrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
		{Name: "/sched/goroutines:goroutines"},
	}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(samples)
			if v := samples[0].Value.Uint64() + samples[1].Value.Uint64(); v > h.heapInuse {
				h.heapInuse = v
			}
			if v := samples[2].Value.Uint64(); v > h.goroutines {
				h.goroutines = v
			}
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler, waits for it, and returns the peaks.
func (h *hostSampler) finish() (heapInuseMB float64, goroutines float64) {
	close(h.stop)
	<-h.done
	return float64(h.heapInuse) / (1 << 20), float64(h.goroutines)
}
