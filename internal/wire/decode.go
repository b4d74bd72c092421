package wire

import (
	"encoding/json"
	"fmt"
	"strconv"
)

// Decode parses a /v1/batch request body. The decoded puts alias body.
func (r *Request) Decode(body []byte) error {
	r.Puts, r.Gets = r.Puts[:0], r.Gets[:0]
	d := dec{b: body}
	return d.document(func(name []byte) bool {
		switch string(name) {
		case "puts":
			return d.ops(&r.Puts, false)
		case "gets":
			r.Gets = r.Gets[:0]
			return d.null() || d.array(func() bool {
				r.Gets = append(r.Gets, 0)
				return d.uint(&r.Gets[len(r.Gets)-1])
			})
		}
		return d.skip()
	})
}

// Decode parses a /v1/batch response body. The decoded results alias
// body.
func (r *Response) Decode(body []byte) error {
	r.Puts, r.Gets, r.Timing = r.Puts[:0], r.Gets[:0], nil
	d := dec{b: body}
	return d.document(func(name []byte) bool {
		switch string(name) {
		case "puts":
			return d.ops(&r.Puts, true)
		case "gets":
			return d.ops(&r.Gets, true)
		case "timing":
			return d.raw(&r.Timing)
		}
		return d.skip()
	})
}

// Decode parses a /v1/kv response body. The decoded value aliases
// body.
func (kv *KV) Decode(body []byte) error {
	kv.Op, kv.Timing = Op{}, nil
	d := dec{b: body}
	return d.document(func(name []byte) bool {
		if string(name) == "timing" {
			return d.raw(&kv.Timing)
		}
		return d.opField(&kv.Op, name, false)
	})
}

// maxDepth is encoding/json's nesting limit.
const maxDepth = 10000

// dec is a cursor over one JSON document. Its methods consume one
// value each and report whether it was well-formed and of the type
// asked for; like encoding/json, a null where a value is expected
// leaves the destination as it was.
type dec struct {
	b     []byte
	i     int
	depth int
}

// document decodes the whole input as one object (or null) followed
// by nothing but whitespace.
func (d *dec) document(field func(name []byte) bool) error {
	if (d.null() || d.object(field)) && d.ws() == 0 && d.i == len(d.b) {
		return nil
	}
	return fmt.Errorf("wire: malformed JSON or wrong type near offset %d", d.i)
}

// ws skips whitespace and returns the byte the cursor stops at, 0 at
// the end of input.
func (d *dec) ws() byte {
	for ; d.i < len(d.b); d.i++ {
		if c := d.b[d.i]; c != ' ' && c != '\n' && c != '\t' && c != '\r' {
			return c
		}
	}
	return 0
}

func (d *dec) lit(s string) bool {
	if len(d.b)-d.i < len(s) || string(d.b[d.i:d.i+len(s)]) != s {
		return false
	}
	d.i += len(s)
	return true
}

func (d *dec) null() bool { return d.ws() == 'n' && d.lit("null") }

// object consumes {"name":value,…}; field consumes each value.
func (d *dec) object(field func(name []byte) bool) bool {
	return d.ws() == '{' && d.members('}', func() bool {
		name, ok := d.str()
		if !ok || d.ws() != ':' {
			return false
		}
		d.i++
		return field(name)
	})
}

// array consumes [value,…]; elem consumes each value.
func (d *dec) array(elem func() bool) bool {
	return d.ws() == '[' && d.members(']', elem)
}

// members consumes the comma-separated inside of an object or array,
// the cursor on its opening bracket, up to and including end.
func (d *dec) members(end byte, member func() bool) bool {
	if d.depth++; d.depth > maxDepth {
		return false
	}
	d.i++
	if d.ws() != end {
		for {
			if !member() {
				return false
			}
			if d.ws() != ',' {
				break
			}
			d.i++
		}
	}
	if d.ws() != end {
		return false
	}
	d.i++
	d.depth--
	return true
}

// str consumes a string and returns its contents: a slice of the
// input when it is plain ASCII without escapes, and encoding/json's
// own unquoting otherwise, so escapes, surrogates and invalid UTF-8
// mean exactly what they mean to it.
func (d *dec) str() ([]byte, bool) {
	if d.ws() != '"' {
		return nil, false
	}
	start, plain := d.i, true
	for d.i++; d.i < len(d.b); d.i++ {
		switch c := d.b[d.i]; {
		case c == '"':
			d.i++
			if plain {
				return d.b[start+1 : d.i-1], true
			}
			var s string
			err := json.Unmarshal(d.b[start:d.i], &s)
			return []byte(s), err == nil
		case c == '\\':
			plain = false
			d.i++
		case c < 0x20:
			return nil, false
		case c >= 0x80:
			plain = false
		}
	}
	return nil, false
}

// text consumes a string or a null and returns the string's
// contents, nil for the null.
func (d *dec) text() ([]byte, bool) {
	if d.null() {
		return nil, true
	}
	return d.str()
}

// number consumes a number and returns its literal.
func (d *dec) number() ([]byte, bool) {
	d.ws()
	start := d.i
	d.accept('-', '-')
	if !d.accept('0', '0') && !d.digits() {
		return nil, false
	}
	if d.accept('.', '.') && !d.digits() {
		return nil, false
	}
	if d.accept('e', 'E') {
		d.accept('+', '-')
		if !d.digits() {
			return nil, false
		}
	}
	return d.b[start:d.i], true
}

// accept steps over the next byte if it is a or b.
func (d *dec) accept(a, b byte) bool {
	if d.i < len(d.b) && (d.b[d.i] == a || d.b[d.i] == b) {
		d.i++
		return true
	}
	return false
}

// digits steps over a run of digits and reports whether there was one.
func (d *dec) digits() bool {
	start := d.i
	for d.i < len(d.b) && d.b[d.i]-'0' <= 9 {
		d.i++
	}
	return d.i > start
}

func (d *dec) uint(dst *uint64) bool {
	if d.null() {
		return true
	}
	n, ok := d.number()
	if !ok {
		return false
	}
	v, err := strconv.ParseUint(string(n), 10, 64)
	*dst = v
	return err == nil
}

// skip consumes and validates one value of any type.
func (d *dec) skip() bool {
	switch d.ws() {
	case '{':
		return d.object(func([]byte) bool { return d.skip() })
	case '[':
		return d.array(d.skip)
	case '"':
		_, ok := d.str()
		return ok
	case 't':
		return d.lit("true")
	case 'f':
		return d.lit("false")
	case 'n':
		return d.lit("null")
	}
	_, ok := d.number()
	return ok
}

// ops decodes an array of per-key elements into *dst.
func (d *dec) ops(dst *[]Op, result bool) bool {
	*dst = (*dst)[:0]
	return d.null() || d.array(func() bool {
		*dst = append(*dst, Op{})
		o := &(*dst)[len(*dst)-1]
		return d.null() || d.object(func(name []byte) bool { return d.opField(o, name, result) })
	})
}

// opField decodes one field of a per-key element. "error" belongs to
// results only; in a request it is an unknown field like any other.
func (d *dec) opField(o *Op, name []byte, result bool) bool {
	switch string(name) {
	case "key":
		return d.uint(&o.Key)
	case "value_b64":
		s, ok := d.text()
		if s != nil {
			o.B64 = s
		}
		return ok
	case "error":
		if result {
			s, ok := d.text()
			if s != nil {
				o.Err = string(s)
			}
			return ok
		}
	}
	return d.skip()
}

// raw validates one value and points *dst at its text, or at nothing
// for a null.
func (d *dec) raw(dst *[]byte) bool {
	d.ws()
	start := d.i
	ok := d.skip()
	if *dst = d.b[start:d.i]; string(*dst) == "null" {
		*dst = nil
	}
	return ok
}
