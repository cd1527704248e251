package trace

// The Kind→counter table. Every counter in IOStats, CommStats and the
// compute fields of ProcStats is changed by folding a span of one of the
// kinds below, and by nothing else: an emission site builds the span it
// emits, folds it into its statistics sink and, when a tracer is
// attached, emits it, all in one Record call (iosim.Disk.Record,
// mp.Proc.Record). ReplayRank runs the same folds over recorded spans,
// so spans and counters agree by construction. Kinds absent from both
// switches (io-wait, fault and the overlays checkpoint, node and phase)
// have no counter.

// Fold adds one span of an I/O kind to s. Spans of any other kind change
// nothing, and nothing is allocated.
func (s *IOStats) Fold(sp Span) { s.Record(nil, &sp) }

// Record folds *sp into s and, when rt is non-nil, emits it: the one call
// an emission site makes. sp is only read. It is passed by pointer so
// that a span built at the call site is read where it was built: a Span
// is too big for registers, and copying it into every fold cost a tenth
// of a phantom job's time at P=64.
func (s *IOStats) Record(rt *RankTracer, sp *Span) {
	switch sp.Kind {
	case KindSlabRead:
		s.SlabReads++
		s.Seconds += sp.Dur
	case KindSlabWrite:
		s.SlabWrites++
		s.Seconds += sp.Dur
	case KindOpenRecover, KindParitySync:
		s.Seconds += sp.Dur
	case KindReadReq:
		s.ReadRequests++
		s.BytesRead += sp.Bytes
		s.ReadSizes.Observe(sp.Bytes)
	case KindWriteReq:
		s.WriteRequests++
		s.BytesWritten += sp.Bytes
		s.WriteSizes.Observe(sp.Bytes)
	case KindRetry:
		s.Retries++
		s.RetrySeconds += sp.Dur
	case KindGiveUp:
		s.GiveUps++
	case KindCorruption:
		s.Corruptions++
	case KindParityRMW:
		s.ParityReads += sp.N
		s.ParityWrites += sp.M
		s.ParityBytesRead += sp.Bytes
		s.ParityBytesWritten += sp.Bytes2
	case KindParityRebuild:
		s.ParityRebuilds += sp.N
	case KindReconstruct:
		s.Reconstructions++
		s.ReconstructedBlocks += sp.N
		s.ReconstructedBytes += sp.Bytes
	}
	if rt != nil {
		rt.Emit(*sp)
	}
}

// Fold adds one span of a communication or compute kind to s. Spans of
// an I/O kind change nothing here: they fold into the IOStats sink named
// by their label.
func (s *ProcStats) Fold(sp Span) { s.Record(nil, &sp) }

// Record folds *sp into s and, when rt is non-nil, emits it (see
// IOStats.Record).
func (s *ProcStats) Record(rt *RankTracer, sp *Span) {
	switch sp.Kind {
	case KindCompute:
		s.FoldCompute(sp.N, sp.Dur, 1)
	case KindSend:
		s.Comm.MessagesSent++
		s.Comm.BytesSent += sp.Bytes
		s.Comm.Seconds += sp.Dur
	case KindWait:
		s.Comm.Seconds += sp.Dur
	case KindCollective:
		s.Comm.Collectives++
	case KindShuffle:
		s.Comm.ShuffleMessages++
		s.Comm.ShuffleBytes += sp.Bytes
	case KindRecoveryComm:
		s.Comm.RecoveryMessages += sp.N
		s.Comm.RecoveryBytes += sp.Bytes
	case KindDetect:
		s.Comm.Detections++
		s.Comm.DetectSeconds += sp.Dur
	case KindAgree:
		s.Comm.Agreements++
	case KindRespawn:
		s.Comm.Respawns++
	}
	if rt != nil {
		rt.Emit(*sp)
	}
}

// FoldCompute folds n compute spans of flops operations and dt seconds
// each, to the bit: ComputeSeconds still takes n separate additions in
// order (one addition of n·dt would round differently), but as a chain
// held in a register rather than n stores through s.
func (s *ProcStats) FoldCompute(flops int64, dt float64, n int) {
	busy := s.ComputeSeconds
	for i := 0; i < n; i++ {
		busy += dt
	}
	s.ComputeSeconds = busy
	s.Flops += int64(n) * flops
}

// foldsIO reports whether a kind's counters live in IOStats (folded per
// sink label) rather than in ProcStats.
func foldsIO(k Kind) bool {
	switch k {
	case KindSlabRead, KindSlabWrite, KindOpenRecover, KindParitySync,
		KindReadReq, KindWriteReq, KindRetry, KindGiveUp, KindCorruption,
		KindParityRMW, KindParityRebuild, KindReconstruct:
		return true
	}
	return false
}
