package oocarray

// SlabWriter overlaps slab writes with computation (write-behind): a
// Write hands the section to the "disk" and returns immediately in
// simulated time; the cost is only realized when the next Write (or
// Flush) has to wait for the previous one to complete. One write may be
// outstanding at a time, mirroring SlabReader's single-outstanding
// prefetch. The file contents are updated immediately — only the
// simulated completion is deferred — so reads of already-written slabs
// stay correct.
type SlabWriter struct {
	arr          *Array
	pendingReady float64
	active       bool
}

// NewSlabWriter returns a write-behind pipeline for the array.
func (a *Array) NewSlabWriter() *SlabWriter {
	return &SlabWriter{arr: a}
}

// Write stores the section, waiting (in simulated time) only for the
// previously outstanding write.
func (w *SlabWriter) Write(s *ICLA) error {
	if w.active && w.arr.clock != nil {
		start := w.arr.clock.Seconds()
		w.arr.clock.SyncTo(w.pendingReady)
		w.arr.laf.Disk().IOWait(start)
	}
	d := w.arr.laf.Disk()
	d.SetDeferred(true)
	sec, err := w.arr.writeSectionRaw(s)
	d.SetDeferred(false)
	if err != nil {
		return err
	}
	if w.arr.clock != nil {
		w.pendingReady = w.arr.clock.Seconds() + sec
	}
	w.active = true
	return nil
}

// Flush waits for the outstanding write, if any. Call it before reading
// the array's final simulated time.
func (w *SlabWriter) Flush() {
	if w.active {
		if w.arr.clock != nil {
			start := w.arr.clock.Seconds()
			w.arr.clock.SyncTo(w.pendingReady)
			w.arr.laf.Disk().IOWait(start)
		}
		w.active = false
	}
}
