package trace

import (
	"encoding/json"
	"math"
	"strconv"
	"unicode/utf8"
)

// The sink's encoder: appendEvent writes a jsonEvent byte for byte as
// json.Marshal does — field order, omitempty, HTML-safe string escaping
// and ES6-style float formatting — and appendSpanEvent and
// appendFlowEvent write a span's events without building them, so a
// streamed span costs no allocation. The decoder still reads lines with
// encoding/json.

// appendEvent appends the encoding of ev.
func appendEvent(b []byte, ev *jsonEvent) ([]byte, error) {
	var err error
	b = append(b, `{"name":`...)
	b = appendQuoted(b, ev.Name, "")
	if ev.Cat != "" {
		b = append(b, `,"cat":`...)
		b = appendQuoted(b, ev.Cat, "")
	}
	b = append(b, `,"ph":`...)
	b = appendQuoted(b, ev.Ph, "")
	b = append(b, `,"ts":`...)
	b = appendFloat(b, ev.TS, &err)
	if ev.Dur != nil {
		b = append(b, `,"dur":`...)
		b = appendFloat(b, *ev.Dur, &err)
	}
	b = appendInt(b, `,"pid":`, int64(ev.PID))
	b = appendInt(b, `,"tid":`, int64(ev.TID))
	b = appendStringField(b, `,"s":`, ev.S)
	b = appendStringField(b, `,"bp":`, ev.BP)
	b = appendStringField(b, `,"id":`, ev.ID)
	if a := ev.Args; a != nil {
		b = append(b, `,"args":{`...)
		mark := len(b)
		b = appendStringField(b, `,"name":`, a.Name)
		b = appendArgs(b, a.Label, a.Start, a.Dur, int64(a.Peer), &err)
		if a.Flow != "" {
			b = append(b, `,"flow":`...)
			b = appendQuoted(b, a.Flow, "")
		}
		b = appendCounts(b, a.N, a.M, a.Bytes, a.Bytes2)
		b = appendIntField(b, `,"count":`, a.Count)
		b = appendIntField(b, `,"spans":`, a.Spans)
		b = closeObject(b, mark)
	}
	return append(b, '}'), err
}

// appendSpanEvent appends the encoding of spanEvent(*s).
func appendSpanEvent(b []byte, s *Span) ([]byte, error) {
	var err error
	kind := s.Kind.String()
	b = append(b, `{"name":`...)
	b = appendQuoted(b, kind, s.Label)
	if kind != "" {
		b = append(b, `,"cat":`...)
		b = appendQuoted(b, kind, "")
	}
	if s.Dur > 0 {
		b = append(b, `,"ph":"X","ts":`...)
		b = appendFloat(b, s.Start*1e6, &err)
		b = append(b, `,"dur":`...)
		b = appendFloat(b, s.Dur*1e6, &err)
	} else {
		b = append(b, `,"ph":"i","ts":`...)
		b = appendFloat(b, s.Start*1e6, &err)
	}
	b = appendInt(b, `,"pid":`, int64(s.Rank))
	tid := int64(tidTimeline)
	if s.Deferred {
		tid = tidDeferred
	}
	b = appendInt(b, `,"tid":`, tid)
	if !(s.Dur > 0) {
		b = append(b, `,"s":"t"`...)
	}
	b = append(b, `,"args":{`...)
	mark := len(b)
	b = appendArgs(b, s.Label, s.Start, s.Dur, int64(s.Peer), &err)
	if s.Flow != 0 {
		b = append(b, `,"flow":"`...)
		b = strconv.AppendUint(b, s.Flow, 16)
		b = append(b, '"')
	}
	b = appendCounts(b, s.N, s.M, s.Bytes, s.Bytes2)
	b = closeObject(b, mark)
	return append(b, '}'), err
}

// appendFlowEvent appends the encoding of flowEvent(*s); ok is false,
// and b unchanged, when s has no flow event.
func appendFlowEvent(b []byte, s *Span) (_ []byte, ok bool, err error) {
	var ph string
	var ts float64
	switch {
	case s.Flow == 0:
		return b, false, nil
	case s.Kind == KindSend:
		ph, ts = `"s"`, s.Start*1e6
	case s.Kind == KindWait:
		ph, ts = `"f"`, s.End()*1e6
	default:
		return b, false, nil
	}
	b = append(b, `{"name":"shuffle","cat":"flow","ph":`...)
	b = append(b, ph...)
	b = append(b, `,"ts":`...)
	b = appendFloat(b, ts, &err)
	b = appendInt(b, `,"pid":`, int64(s.Rank))
	b = appendInt(b, `,"tid":`, tidTimeline)
	if s.Kind == KindWait {
		b = append(b, `,"bp":"e"`...)
	}
	b = append(b, `,"id":"`...)
	b = strconv.AppendUint(b, s.Flow, 16)
	return append(b, `"}`...), true, err
}

// appendArgs appends the span fields of an args object that precede the
// flow id.
func appendArgs(b []byte, label string, start, dur float64, peer int64, err *error) []byte {
	b = appendStringField(b, `,"label":`, label)
	if start != 0 {
		b = append(b, `,"start_s":`...)
		b = appendFloat(b, start, err)
	}
	if dur != 0 {
		b = append(b, `,"dur_s":`...)
		b = appendFloat(b, dur, err)
	}
	return appendIntField(b, `,"peer":`, peer)
}

// appendCounts appends the payload counters of an args object.
func appendCounts(b []byte, n, m, bytes, bytes2 int64) []byte {
	b = appendIntField(b, `,"n":`, n)
	b = appendIntField(b, `,"m":`, m)
	b = appendIntField(b, `,"bytes":`, bytes)
	return appendIntField(b, `,"bytes2":`, bytes2)
}

// closeObject closes an object whose members, each written with a
// leading comma, start at mark: the first one's comma goes.
func closeObject(b []byte, mark int) []byte {
	if len(b) > mark {
		b = append(b[:mark], b[mark+1:]...)
	}
	return append(b, '}')
}

// appendStringField appends key and s unless s is empty (omitempty).
func appendStringField(b []byte, key, s string) []byte {
	if s == "" {
		return b
	}
	return appendQuoted(append(b, key...), s, "")
}

// appendIntField appends key and v unless v is zero (omitempty).
func appendIntField(b []byte, key string, v int64) []byte {
	if v == 0 {
		return b
	}
	return appendInt(b, key, v)
}

func appendInt(b []byte, key string, v int64) []byte {
	return strconv.AppendInt(append(b, key...), v, 10)
}

// appendFloat appends f as encoding/json formats a float64; a NaN or an
// infinity, which JSON cannot carry, sets *err as json.Marshal fails.
func appendFloat(b []byte, f float64, err *error) []byte {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if *err == nil {
			*err = &json.UnsupportedValueError{Str: strconv.FormatFloat(f, 'g', -1, 64)}
		}
		return append(b, '0')
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if format == 'e' {
		// e-07 becomes e-7, as in encoding/json.
		if n := len(b); n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
			b[n-2] = b[n-1]
			b = b[:n-1]
		}
	}
	return b
}

// appendQuoted appends s, followed by a space and suffix when suffix is
// not empty, as one JSON string escaped the way encoding/json escapes
// it: the HTML-sensitive <, > and &, control bytes, invalid UTF-8 (as
// U+FFFD) and the JavaScript line terminators U+2028 and U+2029. The
// space between s and suffix ends any rune s leaves incomplete, so the
// two escape independently.
func appendQuoted(b []byte, s, suffix string) []byte {
	b = append(b, '"')
	b = appendEscaped(b, s)
	if suffix != "" {
		b = append(b, ' ')
		b = appendEscaped(b, suffix)
	}
	return append(b, '"')
}

const hexDigits = "0123456789abcdef"

func appendEscaped(b []byte, s string) []byte {
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	return append(b, s[start:]...)
}
