package oocarray

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

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

// Axpy4 is four Axpy calls to the bit at every length around the element
// unroll of either kernel.
func TestAxpy4MatchesFourAxpy(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for n := 0; n < 20; n++ {
		vec := randVec(rng, n)
		cols := [4][]float64{randVec(rng, n), randVec(rng, n), randVec(rng, n), randVec(rng, n)}
		b := randVec(rng, 4)
		want := append([]float64(nil), vec...)
		for k := range cols {
			Axpy(want, cols[k], b[k])
		}
		Axpy4(vec, cols[0], cols[1], cols[2], cols[3], b[0], b[1], b[2], b[3])
		bitsEqual(t, fmt.Sprintf("n=%d", n), vec, want)
	}
}

// AxpyLoop is its trips taken one Axpy at a time, whatever the trip
// count's remainder and whichever way a and b are walked; a phantom run
// leaves vec alone. Both charge one computation per trip.
func TestAxpyLoopMatchesTripByTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	const rows = 7
	steps := []struct{ a, b int }{{rows, 1}, {rows, 5}, {0, 1}, {rows, 0}}
	for trips := 0; trips < 10; trips++ {
		for _, st := range steps {
			for _, phantom := range []bool{false, true} {
				what := fmt.Sprintf("trips=%d steps=%+v phantom=%v", trips, st, phantom)
				a := randVec(rng, 3+10*rows)
				b := randVec(rng, 2+10*5)
				vec := randVec(rng, rows)
				want := append([]float64(nil), vec...)
				if !phantom {
					for v := 0; v < trips; v++ {
						Axpy(want, a[3+v*st.a:][:rows], b[2+v*st.b])
					}
				}
				stats, err := mp.Run(sim.Delta(1), func(p *mp.Proc) error {
					AxpyLoop(p, vec, trips, phantom, a[3:], st.a, b[2:], st.b)
					return nil
				})
				if err != nil {
					t.Fatalf("%s: %v", what, err)
				}
				bitsEqual(t, what, vec, want)
				if got := stats.Procs[0].Flops; got != int64(trips)*2*rows {
					t.Fatalf("%s: charged %d flops, want %d", what, got, trips*2*rows)
				}
			}
		}
	}
}

// The kernels' own numbers: ns per multiply-add of one slab's worth of
// trips (64 columns), at the 55-row slab of the end-to-end benchmark's
// gaxpy_real and at 512 rows.
func benchAxpy(b *testing.B, kernel func(vec []float64, cols [][]float64, bs []float64)) {
	for _, rows := range []int{55, 512} {
		b.Run(fmt.Sprintf("rows=%d", rows), func(b *testing.B) {
			const ncols = 64
			rng := rand.New(rand.NewSource(1))
			vec := make([]float64, rows)
			cols := make([][]float64, ncols)
			for j := range cols {
				cols[j] = randVec(rng, rows)
			}
			bs := randVec(rng, ncols)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				kernel(vec, cols, bs)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*rows*ncols), "ns/madd")
		})
	}
}

func BenchmarkAxpy(b *testing.B) {
	benchAxpy(b, func(vec []float64, cols [][]float64, bs []float64) {
		for j, c := range cols {
			Axpy(vec, c, bs[j])
		}
	})
}

func BenchmarkAxpy4(b *testing.B) {
	benchAxpy(b, func(vec []float64, cols [][]float64, bs []float64) {
		for j := 0; j+4 <= len(cols); j += 4 {
			Axpy4(vec, cols[j], cols[j+1], cols[j+2], cols[j+3], bs[j], bs[j+1], bs[j+2], bs[j+3])
		}
	})
}
