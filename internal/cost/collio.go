package cost

// Closed-form candidates for the collective out-of-core transpose /
// redistribution of an n x n array between two (collapsed, block)
// mappings over P processors. The counts mirror internal/collio's
// schedule exactly — same slab widths, same round structure, same
// per-round run coalescing — so the selected candidate's predicted
// request count matches the measured one request for request.

// TransposeParams describes the canonical collective transpose: an
// n x n column-block array redistributed into another column-block
// array with the global indices swapped, under a per-processor memory
// budget of MemElems elements. N must be a multiple of P.
type TransposeParams struct {
	N, P     int
	MemElems int
}

// geometry mirrors collio's budget split: phase-1 slabs take half the
// budget, destination windows a quarter.
func (g TransposeParams) geometry() (c, w1, s, winW, nW int, inMem bool) {
	c = g.N / g.P
	w1 = clampWidth(g.MemElems/2, g.N, c)
	winW = clampWidth(g.MemElems/4, g.N, c)
	s = (c + w1 - 1) / w1
	nW = (c + winW - 1) / winW
	inMem = 2*g.N*c <= g.MemElems
	return
}

// clampWidth duplicates collio's slab-width rule (a dependency from cost
// to the runtime layer would invert the compiler's layering, so the
// three-line rule is restated here; internal/cost/collio_test.go pins
// the two against each other).
func clampWidth(budget, rows, cols int) int {
	if rows <= 0 || cols <= 0 {
		return 1
	}
	w := budget / rows
	if w < 1 {
		w = 1
	}
	if w > cols {
		w = cols
	}
	return w
}

// TransposeCandidates returns the per-processor cost candidates for the
// canonical collective transpose, in the fixed order direct, sieved,
// two-phase (ties in Select break toward the earlier, cheaper-to-run
// entry). All three share phase 1 — S contiguous column-slab reads of
// the source and the all-to-all shuffle — and differ only in how the
// destination file is written.
func TransposeCandidates(g TransposeParams) []Candidate {
	c, w1, s, _, nW, inMem := g.geometry()
	n, p := int64(g.N), int64(g.P)
	local := n * int64(c)
	rounds := int64(s)

	// The shuffle carries values only — both sides compute where each one
	// goes — so a rank sends each peer its c x c block, c² elements.
	read := Tally{Array: "src", Fetches: rounds, Requests: rounds, Elems: local}
	comm := CommEstimate{
		Messages: rounds * (p - 1),
		Elems:    (p - 1) * int64(c) * int64(c),
	}

	// Direct: each round's received elements coalesce into runs. With a
	// single round the runs merge into the whole local file (one
	// request); otherwise every round leaves one run per (destination
	// column, sender) pair — n runs.
	directWrites := int64(1)
	if s > 1 {
		directWrites = n * rounds
	}
	direct := Candidate{
		Label: "direct",
		Tallies: []Tally{read,
			{Array: "dst", Fetches: rounds, Requests: directWrites, Elems: local, Write: true}},
		Comm: comm,
	}

	// Sieved: each round read-modify-writes the span covering its runs —
	// two requests per round moving the span twice. A single round is one
	// contiguous run and degenerates to a plain write.
	sieved := Candidate{Label: "sieved", Tallies: []Tally{read}, Comm: comm}
	if s == 1 {
		sieved.Tallies = append(sieved.Tallies,
			Tally{Array: "dst", Fetches: 1, Requests: 1, Elems: local, Write: true})
	} else {
		var reqs, elems int64
		for k := 0; k < s; k++ {
			cw := c - k*w1
			if cw > w1 {
				cw = w1
			}
			span := int64(c-1)*n + (p-1)*int64(c) + int64(cw)
			reqs += 2
			elems += 2 * span
		}
		sieved.Tallies = append(sieved.Tallies,
			Tally{Array: "dst", Fetches: rounds, Requests: reqs, Elems: elems, Write: true})
	}

	// Two-phase: stage per destination window, flush each window with one
	// contiguous write. Out of memory, the received values spill to a
	// scratch file: one contiguous append per window per round, one
	// contiguous read per window at the end — each value written once and
	// read once. The transpose produces every window completely, so no
	// pre-read RMW is needed.
	wins := int64(nW)
	two := Candidate{Label: "two-phase", Tallies: []Tally{read}, Comm: comm}
	if !inMem {
		two.Tallies = append(two.Tallies,
			Tally{Array: "scratch", Fetches: rounds * wins, Requests: rounds * wins, Elems: local, Write: true},
			Tally{Array: "scratch", Fetches: wins, Requests: wins, Elems: local})
	}
	two.Tallies = append(two.Tallies,
		Tally{Array: "dst", Fetches: wins, Requests: wins, Elems: local, Write: true})

	return []Candidate{direct, sieved, two}
}
