package trace

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// leaves returns every number of v, a Snapshot or a part of one, as a
// settable value with its path of JSON member names: each counter, each
// histogram bucket and each processor's number.
func leaves(v reflect.Value, path string) (out []leaf) {
	switch v.Kind() {
	case reflect.Int, reflect.Int64, reflect.Float64:
		return []leaf{{path, v}}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			f := v.Type().Field(i)
			name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
			if name == "" {
				name = f.Name
			}
			out = append(out, leaves(v.Field(i), path+"."+name)...)
		}
	case reflect.Slice, reflect.Array:
		for i := 0; i < v.Len(); i++ {
			out = append(out, leaves(v.Index(i), fmt.Sprintf("%s[%d]", path, i))...)
		}
	default:
		panic("trace: no numbers in a " + v.Kind().String())
	}
	return out
}

type leaf struct {
	path string
	v    reflect.Value
}

// set stores x in l, converted to the leaf's kind.
func (l leaf) set(x float64) {
	if l.v.Kind() == reflect.Float64 {
		l.v.SetFloat(x)
	} else {
		l.v.SetInt(int64(x))
	}
}

// wireRoundTrip encodes snap, requires the bytes to be compact JSON that
// decodes to snap bit for bit — json.Marshal makes the same bytes of the
// decoded value as of snap — and returns them.
func wireRoundTrip(t testing.TB, what string, snap *Snapshot) []byte {
	t.Helper()
	got, err := AppendSnapshot(nil, snap)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, got); err != nil || !bytes.Equal(compact.Bytes(), got) {
		t.Fatalf("%s: not compact JSON (%v): %s", what, err, got)
	}
	var back Snapshot
	if err := json.Unmarshal(got, &back); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	want, _ := json.Marshal(snap)
	if again, _ := json.Marshal(&back); !bytes.Equal(again, want) {
		t.Fatalf("%s: the wire form\n%s\ndecodes to\n%s\nnot\n%s", what, got, again, want)
	}
	return got
}

// A snapshot with no zero anywhere encodes as json.Marshal encodes it,
// byte for byte: same members, order and numbers. Its numbers are
// filled by reflection, so a counter added later is in it.
func TestAppendSnapshotMatchesMarshalWithNoZero(t *testing.T) {
	snap := Snapshot{Procs: make([]ProcStats, 3)}
	for i, l := range leaves(reflect.ValueOf(&snap).Elem(), "snap") {
		l.set(float64(i+1) * 1.5)
	}
	got, err := AppendSnapshot(nil, &snap)
	sameAsMarshal(t, "every number non-zero", snap, got, err)
}

// Each number set alone, and each float set alone to -0, survives the
// wire form under its own name, and the zero snapshot is {}.
func TestAppendSnapshotCoversEveryCounter(t *testing.T) {
	var empty Snapshot
	if got := wireRoundTrip(t, "zero snapshot", &empty); string(got) != "{}" {
		t.Errorf("the zero snapshot encodes as %s, want {}", got)
	}
	template := Snapshot{Procs: make([]ProcStats, 2)}
	n := len(leaves(reflect.ValueOf(&template).Elem(), "snap"))
	for i := 0; i < n; i++ {
		for _, x := range []float64{7, math.Copysign(0, -1)} {
			snap := Snapshot{Procs: make([]ProcStats, 2)}
			l := leaves(reflect.ValueOf(&snap).Elem(), "snap")[i]
			if x == 0 && l.v.Kind() != reflect.Float64 {
				continue
			}
			l.set(x)
			got := wireRoundTrip(t, l.path, &snap)
			name := l.path[strings.LastIndexByte(l.path, '.')+1:]
			if name, _, _ = strings.Cut(name, "["); !bytes.Contains(got, []byte(`"`+name+`":`)) {
				t.Errorf("%s = %v: %s does not name it", l.path, x, got)
			}
		}
	}
}

// Random snapshots — random zeros, -0, values at encoding/json's
// formatting cutoffs, subnormals, large and negative integers — decode
// from the wire form to themselves.
func TestAppendSnapshotRoundTripsRandom(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		snap := Snapshot{}
		if k := r.Intn(5); k > 0 {
			snap.Procs = make([]ProcStats, k-1)
		}
		for _, l := range leaves(reflect.ValueOf(&snap).Elem(), "snap") {
			if r.Intn(3) == 0 {
				continue
			}
			if l.v.Kind() == reflect.Float64 {
				f := randFloat(r)
				for math.IsNaN(f) || math.IsInf(f, 0) {
					f = randFloat(r)
				}
				l.v.SetFloat(f)
			} else {
				l.v.SetInt(randInt(r))
			}
		}
		wireRoundTrip(t, fmt.Sprintf("snapshot %d", i), &snap)
	}
}

// A NaN or an infinity in any float counter fails the encoding, as it
// fails json.Marshal.
func TestAppendSnapshotRefusesNaNAndInf(t *testing.T) {
	template := Snapshot{Procs: make([]ProcStats, 2)}
	for i, l := range leaves(reflect.ValueOf(&template).Elem(), "snap") {
		if l.v.Kind() != reflect.Float64 {
			continue
		}
		for _, x := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			snap := Snapshot{Procs: make([]ProcStats, 2)}
			leaves(reflect.ValueOf(&snap).Elem(), "snap")[i].set(x)
			if _, err := AppendSnapshot(nil, &snap); err == nil || !strings.Contains(err.Error(), fmt.Sprint(x)) {
				t.Errorf("%s = %v: error %v, want one naming the value", l.path, x, err)
			}
		}
	}
}

// A warm reply's statistics encode into a buffer with room for them
// without an allocation.
func TestAppendSnapshotMakesNoAllocation(t *testing.T) {
	snap := Snapshot{Procs: make([]ProcStats, 4)}
	for i, l := range leaves(reflect.ValueOf(&snap).Elem(), "snap") {
		if i%3 != 0 {
			l.set(float64(i) + 0.25)
		}
	}
	buf, err := AppendSnapshot(nil, &snap)
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(100, func() { buf, _ = AppendSnapshot(buf[:0], &snap) }); n != 0 {
		t.Fatalf("AppendSnapshot allocates %v times per call, want 0", n)
	}
}

// FuzzSnapshotWire fills a snapshot's numbers from the input, eight
// bytes each, and requires the wire form to fail exactly when
// json.Marshal fails and otherwise to decode to the snapshot bit for
// bit.
func FuzzSnapshotWire(f *testing.F) {
	f.Add(uint8(0), []byte{})
	f.Add(uint8(2), []byte("\x00\x00\x00\x00\x00\x00\x00\x07\x80\x00\x00\x00\x00\x00\x00\x00"))
	f.Add(uint8(1), bytes.Repeat([]byte("\x3e\xb0\xc6\xf7\xa0\xb5\xed\x8d\x00\x00"), 40))
	f.Add(uint8(3), bytes.Repeat([]byte("\x7f\xf8\x00\x00\x00\x00\x00\x01"), 90))
	f.Fuzz(func(t *testing.T, procs uint8, data []byte) {
		snap := Snapshot{Procs: make([]ProcStats, procs%5)}
		for _, l := range leaves(reflect.ValueOf(&snap).Elem(), "snap") {
			if len(data) < 8 {
				break
			}
			bits := binary.BigEndian.Uint64(data)
			data = data[8:]
			if l.v.Kind() == reflect.Float64 {
				l.v.SetFloat(math.Float64frombits(bits))
			} else {
				l.v.SetInt(int64(bits))
			}
		}
		_, werr := json.Marshal(&snap)
		if _, err := AppendSnapshot(nil, &snap); (err != nil) != (werr != nil) {
			t.Fatalf("AppendSnapshot error %v, json.Marshal error %v", err, werr)
		}
		if werr == nil {
			wireRoundTrip(t, "fuzzed snapshot", &snap)
		}
	})
}
