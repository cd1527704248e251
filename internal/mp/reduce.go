package mp

import "fmt"

// Op is an elementwise reduction operator. Implementations must be
// associative; commutativity is not required because the binomial tree
// combines contributions in a fixed rank order.
type Op interface {
	// Name labels the operator for diagnostics.
	Name() string
	// Combine folds src into dst elementwise.
	Combine(dst, src []float64)
}

type sumOp struct{}

func (sumOp) Name() string { return "sum" }
func (sumOp) Combine(dst, src []float64) {
	for i, v := range src {
		dst[i] += v
	}
}

type maxOp struct{}

func (maxOp) Name() string { return "max" }
func (maxOp) Combine(dst, src []float64) {
	for i, v := range src {
		if v > dst[i] {
			dst[i] = v
		}
	}
}

// Reduction operators.
var (
	OpSum Op = sumOp{}
	OpMax Op = maxOp{}
)

// Reduce computes the elementwise sum of data across all processors using
// a binomial tree rooted at root. On root it returns the full sum (an
// arena buffer the caller owns); on other processors it returns nil.
// len(data) must match on all processors.
func (p *Proc) Reduce(root, tag int, data []float64) []float64 {
	return p.reduce("reduce", OpSum, root, tag, data, len(data))
}

// ReduceWith is Reduce with an arbitrary operator. Each combine step is
// charged as len(data) flops.
func (p *Proc) ReduceWith(root, tag int, data []float64, op Op) []float64 {
	return p.reduce(op.Name(), op, root, tag, data, len(data))
}

// ReduceElided is Reduce over n elements nobody will read — what a
// phantom-mode run reduces. Its messages carry the count n and no buffer:
// the tree, the collective instant, every charge, wait and span are those
// of Reduce on n elements, so clocks, statistics and kill-schedule op
// indices are bitwise the same, and no element is allocated, copied or
// summed. All processors of one reduction must call the same form.
func (p *Proc) ReduceElided(root, tag, n int) {
	if n != int(int32(n)) {
		panic(fmt.Sprintf("mp: rank %d: a count of %d elements does not fit a message", p.rank, n))
	}
	p.reduce("reduce", nil, root, tag, nil, n)
}

// reduce is the one binomial-tree walk behind the three forms above: each
// processor folds the contributions of its subtree into an accumulator in
// a fixed rank order, then hands it to its parent. A nil op is the
// count-only form: there is no accumulator, and a message is n.
func (p *Proc) reduce(name string, op Op, root, tag int, data []float64, n int) []float64 {
	p.collective(name)
	var acc []float64
	if op != nil {
		acc = p.cache.GetF64(n)
		copy(acc, data)
		p.panicBufs[0] = acc
	}
	tag += internalTagBase
	r := p.relRank(root)
	size := p.Size()
	for mask := 1; mask < size; mask <<= 1 {
		if r&mask != 0 {
			dst := p.absRank(r-mask, root)
			p.panicBufs[0] = nil // ownership moves to the message
			if op != nil {
				p.SendOwned(dst, tag, acc)
			} else {
				p.sendCharge(dst, n)
				p.post(dst, tag, nil, int32(n))
			}
			return nil
		}
		if r+mask < size {
			src := p.absRank(r+mask, root)
			msg := p.recv(src, tag)
			p.panicBufs[1] = msg.data
			got := int(msg.count)
			if msg.count == noCount {
				got = len(msg.data)
			}
			switch {
			case (msg.count == noCount) != (op != nil):
				panic(fmt.Sprintf("mp: rank %d: reduction (tag %d) mixes payloads and counts: rank %d sent the other form", p.rank, tag-internalTagBase, src))
			case got != n:
				panic(fmt.Sprintf("mp: rank %d: reduction length mismatch with rank %d (tag %d): %d vs %d", p.rank, src, tag-internalTagBase, n, got))
			case op != nil:
				op.Combine(acc, msg.data)
			}
			p.Compute(int64(n))
			p.panicBufs[1] = nil
			p.cache.PutF64(msg.data)
		}
	}
	p.panicBufs[0] = nil
	return acc
}

// AllReduceWith is ReduceWith followed by a broadcast of the result,
// which every rank owns. Non-roots pass their nil reduce result straight
// into Bcast, which never reads it there.
func (p *Proc) AllReduceWith(tag int, data []float64, op Op) []float64 {
	red := p.ReduceWith(0, tag, data, op)
	p.panicBufs[0] = red // root holds the result across the broadcast's sends
	return p.Bcast(0, tag, red)
}

// AllReduceMax returns the elementwise maximum across processors — used
// by the runtime to agree on global loop bounds (e.g. slab counts on
// ragged distributions).
func (p *Proc) AllReduceMax(tag int, data []float64) []float64 {
	return p.AllReduceWith(tag, data, OpMax)
}
