package service

import (
	"bytes"
	"encoding/json"
	"io"
	"strconv"
	"sync"

	"nocmap/internal/traffic"
)

// A POST /v1/map body is read whole into a pooled buffer and decoded by a
// hand-written lexer in one pass over its bytes. The lexer covers only the
// canonical subset of the wire form: every key exactly one of its struct's
// json names and given once, strings of ASCII bytes from 0x20 up without
// escapes, integer fields in the JSON integer grammar, no nulls, smooth pairs of
// exactly two elements. Anything else — and any read error — makes it
// report "not mine", and the strict encoding/json decode runs on the same
// buffered bytes, followed by the same read error. Accept/reject verdicts,
// decoded values and error texts are therefore encoding/json's on every
// input (FuzzDecodeMapRequest checks this differentially).

// maxPooledBody bounds the buffers returned to bodyPool: a rare huge body
// must not stay resident.
const maxPooledBody = 1 << 20

// maxPooledScratch bounds the element capacity of each scratch slice a
// pooled decoder keeps, for the same reason.
const maxPooledScratch = 1 << 14

var bodyPool = sync.Pool{New: func() any { return new(bodyDecoder) }}

// bodyDecoder is one pooled read buffer plus the lexer over it. The scratch
// slices collect the elements of an array until its closing bracket, so
// each decoded slice is allocated once at its final length.
type bodyDecoder struct {
	buf bytes.Buffer

	b   []byte // the body being lexed
	i   int    // read offset into b
	bad bool   // sticky: the body is outside the canonical subset

	flows []traffic.FlowJSON
	ucs   []traffic.UseCaseJSON
	strs  []string
	ints  []int
	sets  [][]int
	pairs [][2]int
}

// errReader replays a read error after the buffered bytes.
type errReader struct{ err error }

func (r errReader) Read([]byte) (int, error) { return 0, r.err }

// read reads body whole into the decoder's buffer and returns the read
// error, if any; the bytes read before it stay buffered.
func (d *bodyDecoder) read(body io.Reader) error {
	d.buf.Reset()
	_, err := d.buf.ReadFrom(body)
	return err
}

// decodeRequest decodes the buffered body into mr, which must be zero;
// readErr is what read returned. It fails exactly when, and with the error
// that, a strict json.Decoder (DisallowUnknownFields) reading the body
// would.
func (d *bodyDecoder) decodeRequest(readErr error, mr *MapRequest) error {
	if readErr == nil && d.decode(d.buf.Bytes(), mr) {
		return nil
	}
	var src io.Reader = bytes.NewReader(d.buf.Bytes())
	if readErr != nil {
		src = io.MultiReader(src, errReader{readErr})
	}
	return decodeStrict(src, mr)
}

// decodeStrict is the one-pass strict stdlib decode: unknown fields at
// every level of nesting are rejected, and bytes after the first value are
// not read.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// release drops every reference the decoder holds into decoded requests and
// returns it to the pool unless it has grown past the pooling bounds.
func (d *bodyDecoder) release() {
	d.b = nil
	clear(d.ucs[:cap(d.ucs)])
	clear(d.strs[:cap(d.strs)])
	clear(d.sets[:cap(d.sets)])
	if d.buf.Cap() > maxPooledBody || max(cap(d.flows), cap(d.ucs), cap(d.strs),
		cap(d.ints), cap(d.sets), cap(d.pairs)) > maxPooledScratch {
		return
	}
	bodyPool.Put(d)
}

// decode is the fast path: it fills mr from b and reports true, or reports
// false, leaving mr untouched, when b is outside the canonical subset.
// Bytes after the top-level object are ignored, as json.Decoder.Decode
// ignores them.
func (d *bodyDecoder) decode(b []byte, mr *MapRequest) bool {
	d.b, d.i, d.bad = b, 0, false
	var out MapRequest
	var seen uint32
	for more := d.open('{', '}'); more; more = d.more('}') {
		key := d.key()
		var bit uint32
		switch string(key) {
		case "design":
			bit = 1 << 0
			out.Design = d.design()
		case "engine":
			bit = 1 << 1
			out.Engine = d.str()
		case "topology":
			bit = 1 << 2
			out.Topology = d.str()
		case "seed":
			bit = 1 << 3
			out.Seed = ptr(d.int64())
		case "seeds":
			bit = 1 << 4
			out.Seeds = ptr(d.int())
		case "iters":
			bit = 1 << 5
			out.Iters = ptr(d.int())
		case "population":
			bit = 1 << 6
			out.Population = ptr(d.int())
		case "generations":
			bit = 1 << 7
			out.Generations = ptr(d.int())
		case "nodes":
			bit = 1 << 8
			out.Nodes = ptr(d.int())
		case "freq_mhz":
			bit = 1 << 9
			out.FreqMHz = ptr(d.float())
		case "slots":
			bit = 1 << 10
			out.Slots = ptr(d.int())
		case "max_dim":
			bit = 1 << 11
			out.MaxDim = ptr(d.int())
		case "timeout_ms":
			bit = 1 << 12
			out.TimeoutMS = d.int64()
		case "async":
			bit = 1 << 13
			out.Async = d.bool()
		case "mode":
			bit = 1 << 14
			out.Mode = d.str()
		}
		d.once(&seen, bit)
	}
	if d.bad {
		return false
	}
	*mr = out
	return true
}

func (d *bodyDecoder) design() *traffic.DesignJSON {
	out := new(traffic.DesignJSON)
	var seen uint32
	for more := d.open('{', '}'); more; more = d.more('}') {
		key := d.key()
		var bit uint32
		switch string(key) {
		case "name":
			bit = 1 << 0
			out.Name = d.str()
		case "num_cores":
			bit = 1 << 1
			out.NumCores = d.int()
		case "core_names":
			bit = 1 << 2
			d.strs = d.strs[:0]
			for more := d.open('[', ']'); more; more = d.more(']') {
				d.strs = append(d.strs, d.str())
			}
			out.CoreNames = take(d.strs)
		case "use_cases":
			bit = 1 << 3
			d.ucs = d.ucs[:0]
			for more := d.open('[', ']'); more; more = d.more(']') {
				d.ucs = append(d.ucs, d.useCase())
			}
			out.UseCases = take(d.ucs)
		case "parallel_sets":
			bit = 1 << 4
			d.sets = d.sets[:0]
			for more := d.open('[', ']'); more; more = d.more(']') {
				d.ints = d.ints[:0]
				for more := d.open('[', ']'); more; more = d.more(']') {
					d.ints = append(d.ints, d.int())
				}
				d.sets = append(d.sets, take(d.ints))
			}
			out.ParallelSets = take(d.sets)
		case "smooth_pairs":
			bit = 1 << 5
			d.pairs = d.pairs[:0]
			for more := d.open('[', ']'); more; more = d.more(']') {
				var p [2]int
				n := 0
				for more := d.open('[', ']'); more; more = d.more(']') {
					if n == len(p) {
						d.bad = true
						break
					}
					p[n] = d.int()
					n++
				}
				if n != len(p) {
					d.bad = true
				}
				d.pairs = append(d.pairs, p)
			}
			out.SmoothPairs = take(d.pairs)
		case "topology":
			bit = 1 << 6
			out.Topology = d.str()
		}
		d.once(&seen, bit)
	}
	return out
}

func (d *bodyDecoder) useCase() traffic.UseCaseJSON {
	var out traffic.UseCaseJSON
	var seen uint32
	for more := d.open('{', '}'); more; more = d.more('}') {
		key := d.key()
		var bit uint32
		switch string(key) {
		case "name":
			bit = 1 << 0
			out.Name = d.str()
		case "flows":
			bit = 1 << 1
			d.flows = d.flows[:0]
			for more := d.open('[', ']'); more; more = d.more(']') {
				d.flows = append(d.flows, d.flow())
			}
			out.Flows = take(d.flows)
		}
		d.once(&seen, bit)
	}
	return out
}

func (d *bodyDecoder) flow() traffic.FlowJSON {
	var out traffic.FlowJSON
	var seen uint32
	for more := d.open('{', '}'); more; more = d.more('}') {
		key := d.key()
		var bit uint32
		switch string(key) {
		case "src":
			bit = 1 << 0
			out.Src = d.int()
		case "dst":
			bit = 1 << 1
			out.Dst = d.int()
		case "bandwidth_mbs":
			bit = 1 << 2
			out.Bandwidth = d.float()
		case "max_latency_ns":
			bit = 1 << 3
			out.Latency = d.float()
		}
		d.once(&seen, bit)
	}
	return out
}

// take copies the collected elements out of a scratch slice into a new
// slice of their exact length; an empty array decodes to an empty, non-nil
// slice, as encoding/json decodes it.
func take[T any](scratch []T) []T {
	out := make([]T, len(scratch))
	copy(out, scratch)
	return out
}

func ptr[T any](v T) *T { return &v }

// once records a member's bit in seen. A zero bit is a key that is not
// exactly one of the struct's json names, and a bit already in seen is a
// repeated key; both are outside the canonical subset.
func (d *bodyDecoder) once(seen *uint32, bit uint32) {
	if bit == 0 || *seen&bit != 0 {
		d.bad = true
	}
	*seen |= bit
}

// ws skips JSON whitespace.
func (d *bodyDecoder) ws() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// eat consumes c after optional whitespace and reports whether it did.
func (d *bodyDecoder) eat(c byte) bool {
	if d.bad {
		return false
	}
	d.ws()
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// open consumes the opening byte of an object or array and reports whether
// a first member follows (false for an empty container or a failure).
func (d *bodyDecoder) open(open, close byte) bool {
	if !d.eat(open) {
		d.bad = true
		return false
	}
	return !d.eat(close) && !d.bad
}

// more consumes the separator after a member and reports whether another
// member follows; it consumes the closing byte when none does.
func (d *bodyDecoder) more(close byte) bool {
	if d.eat(',') {
		return true
	}
	if !d.eat(close) {
		d.bad = true
	}
	return false
}

// raw consumes a string literal and returns its contents, which alias the
// body. Escapes, bytes below 0x20 and non-ASCII bytes are outside the
// subset.
func (d *bodyDecoder) raw() []byte {
	if !d.eat('"') {
		d.bad = true
		return nil
	}
	for j := d.i; j < len(d.b); j++ {
		switch c := d.b[j]; {
		case c == '"':
			s := d.b[d.i:j]
			d.i = j + 1
			return s
		case c < 0x20 || c >= 0x80 || c == '\\':
			d.bad = true
			return nil
		}
	}
	d.bad = true
	return nil
}

// key consumes an object key and the colon after it.
func (d *bodyDecoder) key() []byte {
	k := d.raw()
	if !d.eat(':') {
		d.bad = true
	}
	return k
}

// str consumes a string value, copied out of the body so that pooling the
// buffer never aliases a decoded request.
func (d *bodyDecoder) str() string { return string(d.raw()) }

func (d *bodyDecoder) bool() bool {
	if d.bad {
		return false
	}
	d.ws()
	rest := d.b[d.i:]
	switch {
	case bytes.HasPrefix(rest, []byte("true")):
		d.i += len("true")
		return true
	case bytes.HasPrefix(rest, []byte("false")):
		d.i += len("false")
	default:
		d.bad = true
	}
	return false
}

// number consumes a literal in the JSON number grammar and reports whether
// it is an integer (no fraction, no exponent).
func (d *bodyDecoder) number() (lit []byte, integer bool) {
	if d.bad {
		return nil, false
	}
	d.ws()
	b, i := d.b, d.i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch j := digits(b, i); {
	case j == i:
		d.bad = true
		return nil, false
	case b[i] == '0':
		i++ // a leading zero is the whole integer part
	default:
		i = j
	}
	integer = true
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			d.bad = true
			return nil, false
		}
		i, integer = j, false
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			d.bad = true
			return nil, false
		}
		i, integer = j, false
	}
	lit, d.i = b[d.i:i], i
	return lit, integer
}

// digits returns the end of the run of decimal digits starting at b[i].
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// integer consumes an integer literal that fits bitSize bits; a fraction,
// an exponent or an overflow is outside the subset.
func (d *bodyDecoder) integer(bitSize int) int64 {
	lit, integer := d.number()
	if !integer {
		d.bad = true
		return 0
	}
	n, err := strconv.ParseInt(string(lit), 10, bitSize)
	if err != nil {
		d.bad = true
	}
	return n
}

func (d *bodyDecoder) int() int     { return int(d.integer(strconv.IntSize)) }
func (d *bodyDecoder) int64() int64 { return d.integer(64) }
func (d *bodyDecoder) float() float64 {
	lit, _ := d.number()
	if d.bad {
		return 0
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	if err != nil {
		d.bad = true
	}
	return f
}
