package oocarray

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"github.com/ooc-hpf/passion/internal/bufpool"
	"github.com/ooc-hpf/passion/internal/mp"
	"github.com/ooc-hpf/passion/internal/sim"
)

func randVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64() * math.Exp2(float64(rng.Intn(40)-20))
	}
	return v
}

// specials are the values on which floating-point kernels part ways when
// they reorder, fuse or flush: infinities, signed zeros, subnormals and
// NaNs of both signs and several payloads.
var specials = []float64{
	math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030, -0x1.8p-1040,
	math.MaxFloat64, -math.MaxFloat64,
	math.Float64frombits(0x7FF8_0000_0000_0001), math.Float64frombits(0xFFF8_0000_0000_0002),
	math.Float64frombits(0x7FF0_0000_0000_0003), // signalling
	math.NaN(),
}

// specialVec is randVec with about one element in four drawn from
// specials instead.
func specialVec(rng *rand.Rand, n int) []float64 {
	v := randVec(rng, n)
	for i := range v {
		if rng.Intn(4) == 0 {
			v[i] = specials[rng.Intn(len(specials))]
		}
	}
	return v
}

func bitsEqual(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d is %x, want %x", what, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// sameBitsOrNaN is the AXPY kernels' contract (see Axpy): every element
// that is not a NaN in want has its bits in got, and got is NaN exactly
// where want is. The payload of a NaN is free.
func sameBitsOrNaN(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", what, len(got), len(want))
	}
	for i := range want {
		if math.IsNaN(want[i]) != math.IsNaN(got[i]) ||
			!math.IsNaN(want[i]) && math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: element %d is %x, want %x", what, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
		}
	}
}

// Axpy4 is four Axpy calls at every length around the element unroll of
// either kernel: to the bit on finite data, up to NaN payloads on
// specials.
func TestAxpy4MatchesFourAxpy(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, special := range []bool{false, true} {
		gen, same := randVec, bitsEqual
		if special {
			gen, same = specialVec, sameBitsOrNaN
		}
		for n := 0; n < 20; n++ {
			vec := gen(rng, n)
			cols := [4][]float64{gen(rng, n), gen(rng, n), gen(rng, n), gen(rng, n)}
			b := gen(rng, 4)
			want := append([]float64(nil), vec...)
			for k := range cols {
				Axpy(want, cols[k], b[k])
			}
			Axpy4(vec, cols[0], cols[1], cols[2], cols[3], b[0], b[1], b[2], b[3])
			same(t, fmt.Sprintf("n=%d special=%v", n, special), vec, want)
		}
	}
}

// axpySteps are the ways a and b are walked: the row-slab and column-slab
// translations ({rows, 1}, {rows, w}), a column reused every trip, an
// element of b reused every trip, and columns with gaps between them.
func axpySteps(rows int) []struct{ a, b int } {
	return []struct{ a, b int }{{rows, 1}, {rows, 5}, {0, 1}, {rows, 0}, {rows + 3, 2}}
}

// axpyCase lays out one loop: a and b start a few elements into their
// slices, which end exactly where the last trip's column and element do.
func axpyCase(gen func(*rand.Rand, int) []float64, rng *rand.Rand, rows, trips, aStep, bStep int) (vec, a, b, want []float64) {
	const aOff, bOff = 3, 2
	last := max(trips-1, 0)
	a = gen(rng, aOff+last*aStep+rows)[aOff:]
	b = gen(rng, bOff+last*bStep+1)[bOff:]
	vec = gen(rng, rows)
	want = append([]float64(nil), vec...)
	for t := 0; t < trips; t++ {
		Axpy(want, a[t*aStep:][:rows], b[t*bStep])
	}
	return vec, a, b, want
}

// AxpyLoop is its trips taken one Axpy at a time, under the contract, at
// every row count from none through four full 16-row blocks and every
// masked tail length, whatever the trip count's remainder and whichever
// way a and b are walked; a phantom run leaves vec alone. Both charge one
// computation per trip. The Go loop is held to the same oracle directly,
// so it is tested on machines where AxpyLoop runs the assembly kernel.
func TestAxpyLoopMatchesTripByTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	tripCounts := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 64}
	for rows := 0; rows <= 70; rows++ {
		for _, trips := range tripCounts {
			for _, st := range axpySteps(rows) {
				what := fmt.Sprintf("rows=%d trips=%d steps=%+v", rows, trips, st)
				vec, a, b, want := axpyCase(specialVec, rng, rows, trips, st.a, st.b)
				gvec := append([]float64(nil), vec...)
				axpyLoopGeneric(gvec, trips, a, st.a, b, st.b)
				sameBitsOrNaN(t, what+" generic", gvec, want)

				for _, phantom := range []bool{false, true} {
					got := append([]float64(nil), vec...)
					stats, err := mp.Run(sim.Delta(1), func(p *mp.Proc) error {
						AxpyLoop(p, got, trips, phantom, a, st.a, b, st.b)
						return nil
					})
					if err != nil {
						t.Fatalf("%s: %v", what, err)
					}
					if phantom {
						bitsEqual(t, what+" phantom", got, vec)
					} else {
						sameBitsOrNaN(t, what, got, want)
					}
					if got := stats.Procs[0].Flops; got != int64(trips)*2*int64(rows) {
						t.Fatalf("%s phantom=%v: charged %d flops, want %d", what, phantom, got, trips*2*rows)
					}
				}
			}
		}
	}
}

// axpyLoops are AxpyLoop's arithmetic as it runs here — the assembly
// kernel where the processor has AVX2 — and the Go loop, called directly.
var axpyLoops = []struct {
	name string
	loop func(vec []float64, n int, a []float64, aStep int, b []float64, bStep int)
}{{"kernel", axpyLoop}, {"generic", axpyLoopGeneric}}

// A slab one element short of the last trip's column, or a b one element
// short of its last element, panics in either loop. (A column is a slice
// expression, so it may reach into a's capacity, as a[i:j] may.)
func TestAxpyLoopShortSlabPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, rows := range []int{7, 16, 55} {
		const trips = 6
		vec, a, b, _ := axpyCase(randVec, rng, rows, trips, rows, 1)
		for _, c := range []struct {
			what string
			a, b []float64
		}{{"short a", a[: len(a)-1 : len(a)-1], b}, {"short b", a, b[:len(b)-1]}} {
			for _, k := range axpyLoops {
				func() {
					defer func() {
						if recover() == nil {
							t.Fatalf("rows=%d %s %s: no panic", rows, c.what, k.name)
						}
					}()
					k.loop(append([]float64(nil), vec...), trips, c.a, rows, c.b, 1)
				}()
			}
		}
	}
}

// FuzzAxpyLoop holds AxpyLoop's arithmetic and the Go loop to the
// trip-by-trip Axpy oracle under the contract, on buffers from the checked
// arena: vec's capacity past its length holds a sentinel that must
// survive, so a masked store that writes one lane too many is caught.
func FuzzAxpyLoop(f *testing.F) {
	f.Add(uint8(55), uint8(64), uint8(0), uint8(1), int64(1))
	f.Add(uint8(15), uint8(3), uint8(3), uint8(2), int64(2))
	f.Add(uint8(33), uint8(9), uint8(255), uint8(0), int64(3))
	bufpool.SetChecked(true)
	defer bufpool.SetChecked(false)
	const sentinel = 0x7FF4_5E47_1E1F_0000

	f.Fuzz(func(t *testing.T, rows8, trips8, gap, bStep8 uint8, seed int64) {
		rows, trips, bStep := int(rows8)%80, int(trips8)%70, int(bStep8)%8
		aStep := rows + int(gap)%8
		if gap == 255 {
			aStep = 0
		}
		rng := rand.New(rand.NewSource(seed))
		last := max(trips-1, 0)
		a := bufpool.GetF64(last*aStep + rows)
		b := bufpool.GetF64(last*bStep + 1)
		copy(a, specialVec(rng, len(a)))
		copy(b, specialVec(rng, len(b)))
		init := specialVec(rng, rows)
		want := append([]float64(nil), init...)
		for t := 0; t < trips; t++ {
			Axpy(want, a[t*aStep:][:rows], b[t*bStep])
		}
		for _, k := range axpyLoops {
			vec := bufpool.GetF64(rows)
			full := vec[:cap(vec)]
			for i := rows; i < len(full); i++ {
				full[i] = math.Float64frombits(sentinel)
			}
			copy(vec, init)
			k.loop(vec, trips, a, aStep, b, bStep)
			what := fmt.Sprintf("%s rows=%d trips=%d aStep=%d bStep=%d", k.name, rows, trips, aStep, bStep)
			sameBitsOrNaN(t, what, vec, want)
			for i := rows; i < len(full); i++ {
				if math.Float64bits(full[i]) != sentinel {
					t.Fatalf("%s: wrote element %d past the vector's end", what, i)
				}
			}
			bufpool.PutF64(vec)
		}
		bufpool.PutF64(a)
		bufpool.PutF64(b)
	})
}

// The kernels' own numbers: ns per multiply-add of one slab's worth of
// trips (64 columns), at the 55-row slab of the end-to-end benchmark's
// gaxpy_real and at 512 rows.
func benchAxpy(b *testing.B, kernel func(vec, slab []float64, cols [][]float64, bs []float64)) {
	for _, rows := range []int{55, 512} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			const ncols = 64
			rng := rand.New(rand.NewSource(1))
			vec := make([]float64, rows)
			slab := randVec(rng, rows*ncols)
			cols := make([][]float64, ncols)
			for j := range cols {
				cols[j] = slab[j*rows : (j+1)*rows]
			}
			bs := randVec(rng, ncols)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				kernel(vec, slab, cols, bs)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows*ncols), "ns/madd")
		})
	}
}

func BenchmarkAxpy(b *testing.B) {
	benchAxpy(b, func(vec, _ []float64, cols [][]float64, bs []float64) {
		for j, c := range cols {
			Axpy(vec, c, bs[j])
		}
	})
}

func BenchmarkAxpy4(b *testing.B) {
	benchAxpy(b, func(vec, _ []float64, cols [][]float64, bs []float64) {
		for j := 0; j+4 <= len(cols); j += 4 {
			Axpy4(vec, cols[j], cols[j+1], cols[j+2], cols[j+3], bs[j], bs[j+1], bs[j+2], bs[j+3])
		}
	})
}

// BenchmarkAxpyLoop compares AxpyLoop's arithmetic — the assembly kernel
// where the processor has AVX2 — with the Go loop it replaces there.
func BenchmarkAxpyLoop(b *testing.B) {
	for _, k := range axpyLoops {
		b.Run(k.name, func(b *testing.B) {
			benchAxpy(b, func(vec, slab []float64, cols [][]float64, bs []float64) {
				k.loop(vec, len(cols), slab, len(vec), bs, 1)
			})
		})
	}
}
