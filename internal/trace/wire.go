package trace

import (
	"math"
	"reflect"
	"strconv"
	"unsafe"
)

// The wire form of a Snapshot, as a served reply and a retained outcome
// carry it: json.Marshal's member names, order, number formatting and
// escaping, written by hand from the statShape tables and less every
// zero. About half of a small run's snapshot is zero counters and
// histogram buckets, and encoding/json decodes the short form back to
// the same Snapshot: a missing member stays zero and a short array is
// zero-filled.

// AppendSnapshot appends the wire form of snap to dst. A counter whose
// value is zero bit for bit is left out (so a -0 is written), and so are
// a histogram's trailing zero buckets, a histogram or statistics object
// left empty, and a nil Procs; decoding the bytes with encoding/json
// gives back snap bit for bit. A NaN or an infinity, which JSON cannot
// carry, is an error, as with json.Marshal, and the bytes appended are
// then not to be used.
func AppendSnapshot(dst []byte, snap *Snapshot) ([]byte, error) {
	var err error
	dst = append(dst, '{')
	mark := len(dst)
	dst = appendFloatField(dst, `,"elapsed_seconds":`, snap.ElapsedSeconds, &err)
	if snap.Procs != nil {
		dst = append(dst, `,"procs":[`...)
		for i := range snap.Procs {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = appendProc(dst, &snap.Procs[i], &err)
		}
		dst = append(dst, ']')
	}
	dst = appendStats(dst, `,"total_io":`, ioShape(), unsafe.Pointer(&snap.TotalIO), &err)
	dst = appendStats(dst, `,"total_comm":`, commShape(), unsafe.Pointer(&snap.TotalComm), &err)
	return closeObject(dst, mark), err
}

// appendProc appends the wire form of one processor's statistics. Its
// fields are written by name: a field added to ProcStats fails the
// encoder's byte-for-byte test against json.Marshal until it is added
// here.
func appendProc(dst []byte, ps *ProcStats, err *error) []byte {
	dst = append(dst, '{')
	mark := len(dst)
	dst = appendIntField(dst, `,"Proc":`, int64(ps.Proc))
	dst = appendStats(dst, `,"IO":`, ioShape(), unsafe.Pointer(&ps.IO), err)
	dst = appendStats(dst, `,"Comm":`, commShape(), unsafe.Pointer(&ps.Comm), err)
	dst = appendIntField(dst, `,"Flops":`, ps.Flops)
	dst = appendFloatField(dst, `,"ComputeSeconds":`, ps.ComputeSeconds, err)
	dst = appendFloatField(dst, `,"Seconds":`, ps.Seconds, err)
	return closeObject(dst, mark)
}

// appendStats appends key and the wire form of the statistics struct at
// p, whose fields shape describes, or nothing when every field is zero.
func appendStats(dst []byte, key string, shape []statField, p unsafe.Pointer, err *error) []byte {
	at := len(dst)
	dst = append(append(dst, key...), '{')
	mark := len(dst)
	for _, f := range shape {
		v := unsafe.Add(p, f.off)
		switch f.kind {
		case reflect.Int64:
			dst = appendIntField(dst, f.key, *(*int64)(v))
		case reflect.Float64:
			dst = appendFloatField(dst, f.key, *(*float64)(v), err)
		default:
			dst = appendHistogram(dst, f.key, (*SizeHistogram)(v))
		}
	}
	if len(dst) == mark {
		return dst[:at]
	}
	return closeObject(dst, mark)
}

// appendHistogram appends key and h up to its last non-zero bucket, or
// nothing when every bucket is zero.
func appendHistogram(dst []byte, key string, h *SizeHistogram) []byte {
	n := len(h.Counts)
	for n > 0 && h.Counts[n-1] == 0 {
		n--
	}
	if n == 0 {
		return dst
	}
	dst = append(append(dst, key...), `{"Counts":[`...)
	for i, c := range h.Counts[:n] {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendInt(dst, c, 10)
	}
	return append(dst, "]}"...)
}

// appendFloatField appends key and f unless f is zero bit for bit.
func appendFloatField(dst []byte, key string, f float64, err *error) []byte {
	if math.Float64bits(f) == 0 {
		return dst
	}
	return appendFloat(append(dst, key...), f, err)
}

// AppendString appends s as json.Marshal writes a string.
func AppendString(dst []byte, s string) []byte { return appendQuoted(dst, s, "") }

// AppendFloat appends f as json.Marshal writes a float64. A NaN or an
// infinity is an error, as with json.Marshal.
func AppendFloat(dst []byte, f float64) ([]byte, error) {
	var err error
	dst = appendFloat(dst, f, &err)
	return dst, err
}
