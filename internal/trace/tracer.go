package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Kind classifies a recorded span. Every kind corresponds to exactly one
// accounting site in the runtime, which is what makes span/counter
// reconciliation possible: replaying a rank's spans in emission order
// must reproduce its IOStats/CommStats to the digit (see ReplayRank).
type Kind uint8

const (
	// KindCompute is charged arithmetic (N = flops).
	KindCompute Kind = iota
	// KindSend is a blocking message injection (Peer = destination,
	// Bytes = message size).
	KindSend
	// KindWait is the receiver-side stall of a Recv: the clock advancing
	// to the message's injection time (Peer = source). Zero duration
	// means the message was already there.
	KindWait
	// KindIOWait is the stall on a previously issued overlapped transfer
	// (prefetch or write-behind) whose simulated completion had not been
	// reached yet.
	KindIOWait
	// KindSlabRead is one logical slab fetch (N = physical requests,
	// Bytes = model bytes; Dur includes retry backoff and inline
	// recovery). Deferred marks transfers issued by an overlap pipeline,
	// whose cost lands on the clock later as KindIOWait.
	KindSlabRead
	// KindSlabWrite is one logical slab store, symmetric to KindSlabRead.
	KindSlabWrite
	// KindReadReq is an instant marking one physical read request
	// (Bytes = model bytes) — the events the request-size histograms are
	// built from.
	KindReadReq
	// KindWriteReq is the write counterpart of KindReadReq.
	KindWriteReq
	// KindRetry is one retried transient fault; Dur is the simulated
	// backoff (zero for unclocked metadata retries).
	KindRetry
	// KindGiveUp is an instant marking an exhausted retry budget.
	KindGiveUp
	// KindCorruption is an instant marking a detected checksum mismatch.
	KindCorruption
	// KindFault is an instant marking a non-transient fault surfacing
	// from the disk layer (lost disk, injected permanent error).
	KindFault
	// KindParityRMW is an instant carrying one protected write's parity
	// maintenance accounting: N parity reads, M parity writes, Bytes
	// read and Bytes2 written on the parity side.
	KindParityRMW
	// KindParityRebuild is an instant marking one parity file recomputed
	// wholesale (N = parity blocks rebuilt).
	KindParityRebuild
	// KindReconstruct is one lost file rebuilt from the surviving disks
	// (N = blocks, Bytes = model bytes recovered). Deferred: its seconds
	// are folded into the interrupted operation's span.
	KindReconstruct
	// KindRecoveryComm is an instant carrying reconstruction gather
	// traffic (N = messages, Bytes = model bytes) attributed to the rank
	// whose communication statistics it was charged to.
	KindRecoveryComm
	// KindOpenRecover is reconstruction time charged at OpenLAF, which
	// bumps IOStats.Seconds without advancing the clock (Deferred).
	KindOpenRecover
	// KindParitySync is one rank's share of the collective parity
	// rebuild (exec.paritySync); its Dur is charged to the clock and to
	// the "(parity)" statistics sink.
	KindParitySync
	// KindCollective is an instant marking entry into a collective
	// (Label = operation name); one per CommStats.Collectives increment.
	KindCollective
	// KindShuffle is an instant marking one AllToAll part about to be
	// sent (Peer = destination, Bytes = part size).
	KindShuffle
	// KindCheckpoint brackets one checkpoint commit including its
	// barrier (N = epoch). It overlays the spans recorded inside it.
	KindCheckpoint
	// KindNode brackets one top-level plan node in exec (Label = node).
	// It overlays the spans recorded inside it.
	KindNode
	// KindPhase brackets one collective-I/O stage (Label =
	// "collio:read" / "collio:shuffle" / "collio:write"). Overlay.
	KindPhase
	// KindDetect is the failure-detection stall of an aborting rank: the
	// simulated heartbeat timeout it waits before declaring a peer dead
	// (Peer = the dead rank, Dur = the wait). Its seconds land in
	// CommStats.DetectSeconds, not Seconds.
	KindDetect
	// KindAgree is an instant marking an aborting rank's adoption of the
	// failed set (N = the dead-rank count when it aborted).
	KindAgree
	// KindRespawn is an instant marking a previously dead rank's
	// goroutine being respawned at the start of a recovery attempt.
	KindRespawn

	numKinds
)

var kindNames = [numKinds]string{
	"compute", "send", "wait", "io-wait", "slab-read", "slab-write",
	"read-req", "write-req", "retry", "give-up", "corruption", "fault",
	"parity-rmw", "parity-rebuild", "reconstruct", "recovery-comm",
	"open-recover", "parity-sync", "collective", "shuffle",
	"checkpoint", "node", "phase", "detect", "agree", "respawn",
}

// String returns the kind's stable name (used as the Chrome trace-event
// category, so it round-trips through export and import).
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// KindFromString inverts String.
func KindFromString(s string) (Kind, bool) {
	for i, n := range kindNames {
		if n == s {
			return Kind(i), true
		}
	}
	return 0, false
}

// Span is one typed interval or instant of simulated time on one rank.
// The payload fields N, M, Bytes and Bytes2 are kind-specific (see the
// Kind constants); unused fields are zero.
type Span struct {
	Rank  int
	Kind  Kind
	Label string
	// Start is the simulated time the span begins; Dur its length in
	// simulated seconds (zero for instants).
	Start float64
	Dur   float64
	// Deferred marks spans whose cost is not on the issuing clock's
	// synchronous timeline: overlapped transfers realized later through
	// KindIOWait, and recovery charged without a clock advance.
	Deferred bool
	// Peer is the partner rank of send/wait/shuffle spans.
	Peer int
	// Flow links the matching send and wait of an AllToAll exchange in
	// the exported timeline (nonzero on both ends, zero elsewhere).
	Flow uint64
	// Kind-specific payloads.
	N, M   int64
	Bytes  int64
	Bytes2 int64
}

// End returns Start + Dur.
func (s Span) End() float64 { return s.Start + s.Dur }

// rankBuf is one rank's span storage, appended to only from that rank's
// goroutine. With a limit it degrades to a ring keeping the newest spans.
type rankBuf struct {
	limit   int
	spans   []Span
	head    int // ring start when full
	dropped int64
}

func (b *rankBuf) add(s Span) {
	if b.limit > 0 && len(b.spans) == b.limit {
		b.spans[b.head] = s
		b.head = (b.head + 1) % b.limit
		b.dropped++
		return
	}
	b.spans = append(b.spans, s)
}

// unrolled returns the spans in emission order.
func (b *rankBuf) unrolled() []Span {
	out := make([]Span, 0, len(b.spans))
	out = append(out, b.spans[b.head:]...)
	out = append(out, b.spans[:b.head]...)
	return out
}

// Tracer records typed spans for every rank of a run against the
// simulated clock. Per-rank storage is lock-free (each rank's goroutine
// owns its buffer); the rare cross-rank emissions (parity rebuild
// traffic attributed to another rank) go through a mutex-protected side
// buffer. A nil *Tracer is fully usable: Rank returns a nil *RankTracer
// whose Emit is a no-op, so instrumented code needs no conditionals
// beyond a nil check on its own fast path.
type Tracer struct {
	ranks []*rankBuf

	mu    sync.Mutex
	cross []Span

	// sk, when non-nil, streams every emitted span to an attached Sink
	// through a bounded hand-off queue (see SetSink). It is shared by
	// reference across the per-attempt tracers of a recovery loop
	// (AdoptSink), so one live stream spans all attempts.
	sk *sinkState
}

// NewTracer returns an unbounded tracer for procs ranks.
func NewTracer(procs int) *Tracer { return NewTracerLimit(procs, 0) }

// NewTracerLimit bounds each rank's storage to maxPerRank spans, kept as
// a ring of the newest ones (Dropped reports the overwritten count).
// maxPerRank <= 0 means unbounded.
func NewTracerLimit(procs, maxPerRank int) *Tracer {
	t := &Tracer{ranks: make([]*rankBuf, procs)}
	for i := range t.ranks {
		t.ranks[i] = &rankBuf{limit: maxPerRank}
	}
	return t
}

// Procs returns the rank count.
func (t *Tracer) Procs() int {
	if t == nil {
		return 0
	}
	return len(t.ranks)
}

// Rank returns the per-rank emission handle. Safe on a nil Tracer or an
// out-of-range rank (returns nil, which is itself safe to Emit on).
// Call SetSink before handing out Rank handles: they capture the sink
// hand-off at creation so the emission fast path stays branch-cheap.
func (t *Tracer) Rank(r int) *RankTracer {
	if t == nil || r < 0 || r >= len(t.ranks) {
		return nil
	}
	return &RankTracer{t: t, buf: t.ranks[r], rank: r, sk: t.sk}
}

// SetSink attaches a streaming consumer: every span recorded after this
// call is also handed to sink, incrementally, from a single pump
// goroutine. queue bounds the hand-off buffer between the emitting
// ranks and the pump (default 4096 spans); when it is full the span is
// dropped from the stream — never blocking the emitting rank or the
// simulated clock — and counted in Dropped and SinkDropped. Call before
// the run starts (before Rank handles are created) and pair with
// CloseSink after the run's goroutines have finished. A nil Tracer or
// nil sink is a no-op.
func (t *Tracer) SetSink(sink Sink, queue int) {
	t.setSink(sink, queue, false)
}

// SetSinkBlocking attaches a lossless streaming consumer: when the
// hand-off queue fills, emitting ranks wait for the pump instead of
// dropping. That can stall wall-clock progress behind a slow sink — the
// simulated clock is never affected — so it fits local destinations the
// producer owns (ooc-run -trace-stream writing its own file), where a
// stream that reconciles exactly is worth the wait. Servers streaming
// to remote subscribers should keep the non-blocking SetSink.
func (t *Tracer) SetSinkBlocking(sink Sink, queue int) {
	t.setSink(sink, queue, true)
}

func (t *Tracer) setSink(sink Sink, queue int, block bool) {
	if t == nil || sink == nil {
		return
	}
	if queue <= 0 {
		queue = 4096
	}
	t.sk = &sinkState{
		sink:  sink,
		q:     make(chan Span, queue),
		done:  make(chan struct{}),
		fin:   make(chan struct{}),
		block: block,
	}
	go t.sk.pump()
}

// AdoptSink moves src's live stream onto t: spans emitted through t now
// feed the same sink, queue and pump. exec.RunResilient uses it to keep
// one stream alive across the fresh tracer it builds per recovery
// attempt. CloseSink on any adopting tracer closes the shared stream.
func (t *Tracer) AdoptSink(src *Tracer) {
	if t == nil || src == nil {
		return
	}
	t.sk = src.sk
}

// CloseSink detaches the streaming sink: it stops accepting spans,
// drains the hand-off queue, reports the final drop count to a
// DropReporter sink, flushes and closes the sink. Safe to call on a
// tracer without a sink (no-op, nil error) and idempotent across
// tracers sharing one stream. Call only after the run's goroutines have
// finished emitting.
func (t *Tracer) CloseSink() error {
	if t == nil || t.sk == nil {
		return nil
	}
	sk := t.sk
	if sk.closed.Swap(true) {
		<-sk.fin
		return sk.err
	}
	close(sk.q)
	<-sk.done
	if dr, ok := sk.sink.(DropReporter); ok {
		dr.ReportDropped(t.Dropped())
	}
	ferr := sk.sink.Flush()
	cerr := sk.sink.Close()
	if ferr != nil {
		sk.err = ferr
	} else {
		sk.err = cerr
	}
	close(sk.fin)
	return sk.err
}

// Dropped returns how many spans were lost across all ranks: buffer
// ring overwrites plus stream hand-off drops (SinkDropped). A nonzero
// count voids the exactness of both the buffered export and the stream.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	var n int64
	for _, b := range t.ranks {
		n += b.dropped
	}
	return n + t.SinkDropped()
}

// SinkDropped returns how many spans the streaming hand-off rejected
// because the sink could not keep up (zero without a sink).
func (t *Tracer) SinkDropped() int64 {
	if t == nil || t.sk == nil {
		return 0
	}
	return t.sk.dropped.Load()
}

// RankSpans returns one rank's spans in emission order, with any
// cross-rank emissions attributed to it appended at the end (they carry
// only order-insensitive integer payloads). Call only after the run's
// goroutines have finished.
func (t *Tracer) RankSpans(r int) []Span {
	if t == nil || r < 0 || r >= len(t.ranks) {
		return nil
	}
	out := t.ranks[r].unrolled()
	t.mu.Lock()
	for _, s := range t.cross {
		if s.Rank == r {
			out = append(out, s)
		}
	}
	t.mu.Unlock()
	return out
}

// Spans returns all spans: each rank's in emission order, ranks
// concatenated in order. Call only after the run's goroutines have
// finished.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	var out []Span
	for r := range t.ranks {
		out = append(out, t.RankSpans(r)...)
	}
	return out
}

// RankTracer emits spans for one rank. All methods must be called from
// that rank's goroutine (Cross may attribute the span to another rank,
// but is still called from the emitting goroutine). A nil receiver is a
// no-op.
type RankTracer struct {
	t    *Tracer
	buf  *rankBuf
	rank int
	sk   *sinkState
}

// Emit records one span on this rank. The span's Rank field is set by
// the tracer. With a streaming sink attached the span is also offered
// to the hand-off queue — a non-blocking send, so a slow sink costs
// drops, never simulated time.
func (rt *RankTracer) Emit(s Span) {
	if rt == nil {
		return
	}
	s.Rank = rt.rank
	rt.buf.add(s)
	if rt.sk != nil {
		rt.sk.offer(s)
	}
}

// Cross records a span attributed to another rank (e.g. recovery
// traffic charged to the rank hosting a rebuilt parity file). It is
// safe under concurrent emission from other goroutines.
func (rt *RankTracer) Cross(rank int, s Span) {
	if rt == nil {
		return
	}
	s.Rank = rank
	rt.t.mu.Lock()
	rt.t.cross = append(rt.t.cross, s)
	rt.t.mu.Unlock()
	if rt.sk != nil {
		rt.sk.offer(s)
	}
}

// ---------------------------------------------------------------------------
// Text rendering

// kindGlyphs maps timeline span kinds to their Gantt glyphs.
var kindGlyphs = map[Kind]rune{
	KindCompute:     'C',
	KindSend:        's',
	KindWait:        'w',
	KindIOWait:      'o',
	KindSlabRead:    'R',
	KindSlabWrite:   'W',
	KindParitySync:  'P',
	KindOpenRecover: 'X',
	KindReconstruct: 'X',
}

// overlayKind reports whether the kind brackets other spans (and so must
// be excluded from time aggregation to avoid double counting).
func overlayKind(k Kind) bool {
	return k == KindNode || k == KindPhase || k == KindCheckpoint
}

// Gantt renders an ASCII timeline: one lane per rank, width columns
// spanning [0, horizon] where horizon is the latest span end. Later
// spans overpaint earlier ones within a cell; idle time shows as '.'.
// Deferred (overlapped) transfers are not painted — their cost appears
// as 'o' stalls where the pipeline waited for them.
func (t *Tracer) Gantt(procs, width int) string {
	spans := t.Spans()
	horizon := 0.0
	for _, s := range spans {
		if !s.Deferred && s.End() > horizon {
			horizon = s.End()
		}
	}
	if horizon <= 0 || width < 10 {
		return "(no spans recorded)\n"
	}
	lanes := make([][]rune, procs)
	for i := range lanes {
		lanes[i] = []rune(strings.Repeat(".", width))
	}
	for _, s := range spans {
		if s.Rank < 0 || s.Rank >= procs || s.Deferred || s.Dur <= 0 {
			continue
		}
		glyph, ok := kindGlyphs[s.Kind]
		if !ok {
			continue
		}
		lo := int(s.Start / horizon * float64(width))
		hi := int(s.End() / horizon * float64(width))
		if hi == lo {
			hi = lo + 1
		}
		if hi > width {
			hi = width
		}
		for c := lo; c < hi; c++ {
			lanes[s.Rank][c] = glyph
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "timeline over %.2f simulated seconds (C compute, R read, W write, o io-wait, s send, w recv-wait, P parity-sync, X recovery, . idle)\n", horizon)
	for p, lane := range lanes {
		fmt.Fprintf(&b, "p%-3d |%s|\n", p, string(lane))
	}
	return b.String()
}

// Summary aggregates span time per (kind, label) pair, for text reports.
// Overlay kinds are excluded; deferred transfers are flagged.
func (t *Tracer) Summary() string {
	spans := t.Spans()
	totals := map[string]float64{}
	for _, s := range spans {
		if s.Dur <= 0 || overlayKind(s.Kind) {
			continue
		}
		key := s.Kind.String()
		if s.Label != "" {
			key += " " + s.Label
		}
		if s.Deferred {
			key += " (overlapped)"
		}
		totals[key] += s.Dur
	}
	if len(totals) == 0 {
		return "(no spans recorded)\n"
	}
	keys := make([]string, 0, len(totals))
	for k := range totals {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%-32s %10.2fs\n", k, totals[k])
	}
	return b.String()
}
