package oocarray

// SlabReader iterates over the slabs of a decomposition in order. With
// Options.Prefetch enabled it overlaps the fetch of slab i+1 with the
// computation on slab i: the next fetch is issued as soon as a slab is
// delivered, and its simulated completion time is applied with SyncTo
// instead of Advance, so I/O time hides behind whatever compute the caller
// performs between Next calls (single outstanding request model).
type SlabReader struct {
	arr          *Array
	slb          Slabbing
	next         int
	pending      *ICLA
	pendingReady float64
}

// NewSlabReader returns a reader over the given decomposition.
func (a *Array) NewSlabReader(s Slabbing) *SlabReader {
	r := new(SlabReader)
	r.Attach(a, s)
	return r
}

// Attach readies r for a pass over a's slabs of decomposition s from the
// first: the one way a reader is made, and the way a kept one is made
// again for another array or run. A pending prefetched slab is
// discarded (its cost was never charged) and its storage returned to the
// arena.
func (r *SlabReader) Attach(a *Array, s Slabbing) {
	r.Close()
	*r = SlabReader{arr: a, slb: s}
}

// Reset rewinds the reader for another pass over the slabs.
func (r *SlabReader) Reset() { r.Attach(r.arr, r.slb) }

// Close releases a pending prefetched slab, if any. Call it when the
// reader is abandoned before exhaustion — a cancelled run, an early
// error — so the prefetch buffer returns to the arena; a drained or
// fresh reader makes it a no-op.
func (r *SlabReader) Close() {
	if r.pending != nil {
		r.arr.Recycle(r.pending)
		r.pending = nil
	}
}

// Remaining returns how many slabs have not been delivered yet.
func (r *SlabReader) Remaining() int { return r.slb.Count - r.next }

// Next delivers the next slab, or ok == false after the last one.
func (r *SlabReader) Next() (icla *ICLA, ok bool, err error) {
	if r.next >= r.slb.Count {
		return nil, false, nil
	}
	if r.pending != nil {
		icla = r.pending
		r.pending = nil
		if r.arr.clock != nil {
			start := r.arr.clock.Seconds()
			r.arr.clock.SyncTo(r.pendingReady)
			r.arr.laf.Disk().IOWait(start)
		}
	} else {
		var sec float64
		icla, sec, err = r.arr.readSlabRaw(r.slb, r.next)
		if err != nil {
			return nil, false, err
		}
		r.arr.charge("io-read", sec)
	}
	r.next++
	if r.arr.opts.Prefetch && r.next < r.slb.Count {
		// The slab about to be delivered stays the reader's until the
		// prefetch behind it has been issued: a prefetch read that fails,
		// or is killed, must not strand it (Close releases it).
		r.pending = icla
		d := r.arr.laf.Disk()
		d.SetDeferred(true)
		pre, sec, err := r.arr.readSlabRaw(r.slb, r.next)
		d.SetDeferred(false)
		if err != nil {
			r.Close()
			return nil, false, err
		}
		r.pending = pre
		if r.arr.clock != nil {
			r.pendingReady = r.arr.clock.Seconds() + sec
		}
	}
	return icla, true, nil
}
