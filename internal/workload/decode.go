package workload

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
	"unsafe"

	"repro/internal/compute"
	"repro/internal/resource"
)

// UnmarshalJob decodes one job from JSON in a single pass, accepting and
// refusing exactly what json.Unmarshal into a Job does and producing the
// same value:
//   - keys match field names case-insensitively, and unknown keys of any
//     nesting are validated and skipped;
//   - null leaves a scalar or struct as it is and sets a slice or map to
//     nil;
//   - a repeated key decodes into what the earlier one left: the last
//     scalar wins, structs and Amounts maps merge, and array elements
//     decode into the existing ones;
//   - string escapes are decoded, including surrogate pairs, and invalid
//     UTF-8 becomes U+FFFD;
//   - an integer field refuses fractions, exponents and overflow;
//   - anything but space after the value is refused.
//
// The job holds only what it needs: one string per distinct name, shared
// by every field that repeats it, one slice per array and one map per
// step. Nothing aliases data, so the caller may reuse it at once. The
// job is not validated; ValidateJob does that.
func UnmarshalJob(data []byte) (Job, error) {
	d := decoders.Get().(*decoder)
	defer d.free()
	d.data = data
	var job Job
	err := d.object(jobFields, func(f string) error {
		switch f {
		case "Dist":
			return d.dist(&job.Dist)
		default: // "Arrival"
			return d.intInto(&job.Arrival)
		}
	})
	if err == nil {
		d.space()
		if d.pos < len(d.data) {
			err = d.fail("data after the job")
		}
	}
	if err != nil {
		return Job{}, err
	}
	return job, nil
}

// The decoded structs' fields, as encoding/json names them.
var (
	jobFields    = []string{"Dist", "Arrival"}
	distFields   = []string{"Name", "Actors", "Start", "Deadline"}
	actorFields  = []string{"Actor", "Steps"}
	stepFields   = []string{"Action", "Amounts"}
	actionFields = []string{"Op", "Actor", "Target", "Loc", "Dest", "Size"}
)

const (
	// maxDepth is encoding/json's nesting limit: deeper input is refused.
	maxDepth = 10000
	// maxSizeHint caps the capacity a slice or map is made with from a
	// count of its elements, so a body that fails early cannot make a
	// large allocation first. Longer arrays grow as they decode.
	maxSizeHint = 64
)

// decoders holds idle decoders. A decoder cannot live on the stack: the
// strings it reads may point into its own buf, so it would cost an
// allocation per decode.
var decoders = sync.Pool{New: func() any { return new(decoder) }}

type decoder struct {
	data  []byte
	pos   int
	depth int
	// buf holds the decoded text of the last string that had escapes or
	// invalid UTF-8, if it fits; a string without them is read in place.
	buf [64]byte
	// names are the first distinct strings made, reused for every repeat
	// of an actor, location or kind.
	names  [16]string
	nnames int
}

// free returns d to the pool holding nothing of the decode just done.
func (d *decoder) free() {
	*d = decoder{}
	decoders.Put(d)
}

func (d *decoder) fail(what string) error {
	return fmt.Errorf("workload: bad job JSON at offset %d: %s", d.pos, what)
}

func (d *decoder) space() {
	for d.pos < len(d.data) {
		switch d.data[d.pos] {
		case ' ', '\t', '\n', '\r':
			d.pos++
		default:
			return
		}
	}
}

// peek skips space and returns the next byte, or 0 at the end.
func (d *decoder) peek() byte {
	d.space()
	if d.pos < len(d.data) {
		return d.data[d.pos]
	}
	return 0
}

// literal consumes word, which the caller has seen the first byte of.
func (d *decoder) literal(word string) error {
	if !strings.HasPrefix(view(d.data[d.pos:]), word) {
		return d.fail("invalid literal")
	}
	d.pos += len(word)
	return nil
}

// null consumes a null if one comes next.
func (d *decoder) null() (bool, error) {
	if d.peek() != 'n' {
		return false, nil
	}
	return true, d.literal("null")
}

// open consumes the bracket that starts an object or array.
func (d *decoder) open(c byte) error {
	if d.peek() != c {
		return d.fail(fmt.Sprintf("want %q", c))
	}
	d.pos++
	if d.depth++; d.depth > maxDepth {
		return d.fail("nesting too deep")
	}
	return nil
}

// member reads the key of the i-th member of an open object and the
// colon after it. At the closing brace it consumes it and reports false.
// The key is valid until the next string is read.
func (d *decoder) member(i int) (string, bool, error) {
	c := d.peek()
	if c == '}' {
		d.pos++
		d.depth--
		return "", false, nil
	}
	if i > 0 {
		if c != ',' {
			return "", false, d.fail("want ',' or '}'")
		}
		d.pos++
		c = d.peek()
	}
	if c != '"' {
		return "", false, d.fail("want a key")
	}
	key, err := d.text()
	if err != nil {
		return "", false, err
	}
	if d.peek() != ':' {
		return "", false, d.fail("want ':'")
	}
	d.pos++
	return key, true, nil
}

// element moves to the i-th element of an open array. At the closing
// bracket it consumes it and reports false.
func (d *decoder) element(i int) (bool, error) {
	c := d.peek()
	if c == ']' {
		d.pos++
		d.depth--
		return false, nil
	}
	if i > 0 {
		if c != ',' {
			return false, d.fail("want ',' or ']'")
		}
		d.pos++
	}
	return true, nil
}

// object decodes a JSON object into a struct whose fields are named in
// fields: a member whose key matches one goes to set with the field's
// name, and every other member is validated and skipped. A null leaves
// the struct as it is.
func (d *decoder) object(fields []string, set func(field string) error) error {
	if null, err := d.null(); null || err != nil {
		return err
	}
	if err := d.open('{'); err != nil {
		return err
	}
	for i := 0; ; i++ {
		key, ok, err := d.member(i)
		if err != nil || !ok {
			return err
		}
		if f := match(key, fields); f != "" {
			err = set(f)
		} else {
			err = d.skip()
		}
		if err != nil {
			return err
		}
	}
}

// match returns the field key names, matched as encoding/json matches
// it, or "" for none. Exact names, what json.Marshal writes, are tried
// before the slower case-folded comparison.
func match(key string, fields []string) string {
	for _, f := range fields {
		if key == f {
			return f
		}
	}
	for _, f := range fields {
		if strings.EqualFold(key, f) {
			return f
		}
	}
	return ""
}

// sliceInto decodes a JSON array into *dst as encoding/json does: each
// element decodes into the one already at its index, if any, and the
// slice is cut to the array's length. A null sets it to nil and an empty
// array to an empty slice.
func sliceInto[T any](d *decoder, dst *[]T, elem func(*T) error) error {
	if null, err := d.null(); null || err != nil {
		if null {
			*dst = nil
		}
		return err
	}
	n := d.count()
	if err := d.open('['); err != nil {
		return err
	}
	s := *dst
	if s == nil {
		s = make([]T, 0, n)
	}
	i := 0
	for ; ; i++ {
		ok, err := d.element(i)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if i >= cap(s) {
			var zero T
			s = append(s, zero)
		} else if i >= len(s) {
			s = s[:i+1]
		}
		if err := elem(&s[i]); err != nil {
			return err
		}
	}
	if i == 0 {
		s = []T{}
	}
	*dst = s[:i]
	return nil
}

// count returns how many elements or members the array or object at
// d.pos holds, at most maxSizeHint. It reads ahead without validating:
// the count only sizes what the value decodes into.
func (d *decoder) count() int {
	data := d.data
	i := d.pos + 1
	for i < len(data) && (data[i] == ' ' || data[i] == '\t' || data[i] == '\n' || data[i] == '\r') {
		i++
	}
	if i < len(data) && (data[i] == ']' || data[i] == '}') {
		return 0
	}
	n, depth := 1, 1
	for ; i < len(data) && n < maxSizeHint; i++ {
		switch data[i] {
		case '"':
			for i++; i < len(data) && data[i] != '"'; i++ {
				if data[i] == '\\' {
					i++
				}
			}
		case '{', '[':
			depth++
		case '}', ']':
			if depth--; depth == 0 {
				return n
			}
		case ',':
			if depth == 1 {
				n++
			}
		}
	}
	return n
}

func (d *decoder) dist(dst *compute.Distributed) error {
	return d.object(distFields, func(f string) error {
		switch f {
		case "Name":
			return d.stringInto(&dst.Name)
		case "Actors":
			return sliceInto(d, &dst.Actors, d.actor)
		case "Start":
			return d.intInto(&dst.Start)
		default: // "Deadline"
			return d.intInto(&dst.Deadline)
		}
	})
}

func (d *decoder) actor(dst *compute.Computation) error {
	return d.object(actorFields, func(f string) error {
		switch f {
		case "Actor":
			return d.stringInto((*string)(&dst.Actor))
		default: // "Steps"
			return sliceInto(d, &dst.Steps, d.step)
		}
	})
}

func (d *decoder) step(dst *compute.Step) error {
	return d.object(stepFields, func(f string) error {
		switch f {
		case "Action":
			return d.action(&dst.Action)
		default: // "Amounts"
			return d.amounts(&dst.Amounts)
		}
	})
}

func (d *decoder) action(dst *compute.Action) error {
	return d.object(actionFields, func(f string) error {
		switch f {
		case "Op":
			return d.opInto(&dst.Op)
		case "Actor":
			return d.stringInto((*string)(&dst.Actor))
		case "Target":
			return d.stringInto((*string)(&dst.Target))
		case "Loc":
			return d.stringInto((*string)(&dst.Loc))
		case "Dest":
			return d.stringInto((*string)(&dst.Dest))
		default: // "Size"
			return d.intInto(&dst.Size)
		}
	})
}

// amounts decodes a JSON object into *dst, adding to the map already
// there. Keys are located types in their compact text, "" being the zero
// one; a null value stores 0. A null object sets the map to nil.
func (d *decoder) amounts(dst *resource.Amounts) error {
	if null, err := d.null(); null || err != nil {
		if null {
			*dst = nil
		}
		return err
	}
	n := d.count()
	if err := d.open('{'); err != nil {
		return err
	}
	m := *dst
	if m == nil {
		m = make(resource.Amounts, n)
	}
	for i := 0; ; i++ {
		key, ok, err := d.member(i)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		var lt resource.LocatedType
		if key != "" {
			if lt, err = resource.ParseLocatedType(key); err != nil {
				return fmt.Errorf("workload: bad job JSON: %w", err)
			}
			// The parts are views of key, which the next string overwrites.
			lt.Kind = resource.Kind(d.intern(string(lt.Kind)))
			lt.Loc = resource.Location(d.intern(string(lt.Loc)))
			lt.Dst = resource.Location(d.intern(string(lt.Dst)))
		}
		var q resource.Quantity
		if err := d.intInto((*int64)(&q)); err != nil {
			return err
		}
		m[lt] = q
	}
	*dst = m
	return nil
}

// stringInto decodes a string into *dst; a null leaves it as it is.
func (d *decoder) stringInto(dst *string) error {
	if null, err := d.null(); null || err != nil {
		return err
	}
	if d.peek() != '"' {
		return d.fail("want a string")
	}
	s, err := d.text()
	if err != nil {
		return err
	}
	*dst = d.intern(s)
	return nil
}

// intern returns a string equal to s that outlives the decode: the one
// made earlier for the same text, or a new copy.
func (d *decoder) intern(s string) string {
	if s == "" {
		return ""
	}
	for _, n := range d.names[:d.nnames] {
		if n == s {
			return n
		}
	}
	n := strings.Clone(s)
	if d.nnames < len(d.names) {
		d.names[d.nnames] = n
		d.nnames++
	}
	return n
}

// intInto decodes an int64 into *dst; a null leaves it as it is.
func (d *decoder) intInto(dst *int64) error {
	if null, err := d.null(); null || err != nil {
		return err
	}
	neg, mag, err := d.integer()
	if err != nil {
		return err
	}
	switch {
	case !neg && mag > math.MaxInt64:
		return d.fail("integer overflows int64")
	case neg:
		*dst = -int64(mag) // mag 1<<63 wraps to math.MinInt64
	default:
		*dst = int64(mag)
	}
	return nil
}

// opInto decodes an action's op, a uint8, into *dst; a null leaves it
// as it is.
func (d *decoder) opInto(dst *compute.Op) error {
	if null, err := d.null(); null || err != nil {
		return err
	}
	neg, mag, err := d.integer()
	if err != nil {
		return err
	}
	if neg || mag > math.MaxUint8 {
		return d.fail("op out of range")
	}
	*dst = compute.Op(mag)
	return nil
}

// integer reads a number that must be an integer: its sign and its
// magnitude, which is at most 1<<63. A fraction or exponent is refused,
// as encoding/json refuses one for an integer field.
func (d *decoder) integer() (neg bool, mag uint64, err error) {
	d.space()
	data := d.data
	if d.pos < len(data) && data[d.pos] == '-' {
		neg = true
		d.pos++
	}
	start := d.pos
	for d.pos < len(data) && data[d.pos] >= '0' && data[d.pos] <= '9' {
		c := uint64(data[d.pos] - '0')
		if mag > (1<<63-c)/10 {
			return false, 0, d.fail("integer overflows int64")
		}
		mag = mag*10 + c
		d.pos++
		if d.pos-start == 1 && c == 0 {
			break // a leading zero is the whole integer part
		}
	}
	if d.pos == start {
		return false, 0, d.fail("want an integer")
	}
	if d.pos < len(data) && (data[d.pos] == '.' || data[d.pos] == 'e' || data[d.pos] == 'E') {
		return false, 0, d.fail("want an integer, not a fraction or exponent")
	}
	return neg, mag, nil
}

// skip validates and consumes one value of any kind.
func (d *decoder) skip() error {
	switch c := d.peek(); {
	case c == '{':
		if err := d.open('{'); err != nil {
			return err
		}
		for i := 0; ; i++ {
			_, ok, err := d.member(i)
			if err != nil || !ok {
				return err
			}
			if err := d.skip(); err != nil {
				return err
			}
		}
	case c == '[':
		if err := d.open('['); err != nil {
			return err
		}
		for i := 0; ; i++ {
			ok, err := d.element(i)
			if err != nil || !ok {
				return err
			}
			if err := d.skip(); err != nil {
				return err
			}
		}
	case c == '"':
		_, err := d.text()
		return err
	case c == 't':
		return d.literal("true")
	case c == 'f':
		return d.literal("false")
	case c == 'n':
		return d.literal("null")
	case c == '-' || c >= '0' && c <= '9':
		return d.number()
	default:
		return d.fail("want a value")
	}
}

// number validates and consumes a number of any form.
func (d *decoder) number() error {
	data := d.data
	digits := func() int {
		start := d.pos
		for d.pos < len(data) && data[d.pos] >= '0' && data[d.pos] <= '9' {
			d.pos++
		}
		return d.pos - start
	}
	if data[d.pos] == '-' {
		d.pos++
	}
	if d.pos < len(data) && data[d.pos] == '0' {
		d.pos++
	} else if digits() == 0 {
		return d.fail("want a digit")
	}
	if d.pos < len(data) && data[d.pos] == '.' {
		d.pos++
		if digits() == 0 {
			return d.fail("want a digit")
		}
	}
	if d.pos < len(data) && (data[d.pos] == 'e' || data[d.pos] == 'E') {
		d.pos++
		if d.pos < len(data) && (data[d.pos] == '+' || data[d.pos] == '-') {
			d.pos++
		}
		if digits() == 0 {
			return d.fail("want a digit")
		}
	}
	return nil
}

// text reads the string at d.pos and returns its decoded text, valid
// until the next string is read: a view of data when the string has no
// escapes and is valid UTF-8, else of d.buf or, for a long one, of a
// buffer of its own.
func (d *decoder) text() (string, error) {
	data := d.data
	start := d.pos + 1
	i := start
	for i < len(data) {
		c := data[i]
		if c == '"' {
			d.pos = i + 1
			return view(data[start:i]), nil
		}
		if c == '\\' {
			break
		}
		if c < ' ' {
			d.pos = i
			return "", d.fail("control character in string")
		}
		if c < utf8.RuneSelf {
			i++
			continue
		}
		r, size := utf8.DecodeRune(data[i:])
		if r == utf8.RuneError && size == 1 {
			break
		}
		i += size
	}
	buf := append(d.buf[:0], data[start:i]...)
	for {
		if i >= len(data) {
			d.pos = i
			return "", d.fail("unterminated string")
		}
		c := data[i]
		switch {
		case c == '"':
			d.pos = i + 1
			return view(buf), nil
		case c == '\\':
			if i+1 >= len(data) {
				d.pos = i
				return "", d.fail("unterminated string")
			}
			switch e := data[i+1]; e {
			case '"', '\\', '/':
				buf = append(buf, e)
			case 'b':
				buf = append(buf, '\b')
			case 'f':
				buf = append(buf, '\f')
			case 'n':
				buf = append(buf, '\n')
			case 'r':
				buf = append(buf, '\r')
			case 't':
				buf = append(buf, '\t')
			case 'u':
				r := hex4(data[i+2:])
				if r < 0 {
					d.pos = i
					return "", d.fail("invalid \\u escape")
				}
				if utf16.IsSurrogate(r) {
					// A valid pair is one rune; anything else leaves
					// U+FFFD and reads what follows on its own.
					r2 := rune(-1)
					if i+7 < len(data) && data[i+6] == '\\' && data[i+7] == 'u' {
						r2 = hex4(data[i+8:])
					}
					if dec := utf16.DecodeRune(r, r2); dec != unicode.ReplacementChar {
						r = dec
						i += 6
					} else {
						r = unicode.ReplacementChar
					}
				}
				buf = utf8.AppendRune(buf, r)
				i += 4
			default:
				d.pos = i
				return "", d.fail("invalid escape")
			}
			i += 2
		case c < ' ':
			d.pos = i
			return "", d.fail("control character in string")
		case c < utf8.RuneSelf:
			buf = append(buf, c)
			i++
		default:
			r, size := utf8.DecodeRune(data[i:])
			buf = utf8.AppendRune(buf, r) // an invalid byte decodes as U+FFFD
			i += size
		}
	}
}

// hex4 parses the four hex digits at the start of b, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case c >= '0' && c <= '9':
			c -= '0'
		case c >= 'a' && c <= 'f':
			c = c - 'a' + 10
		case c >= 'A' && c <= 'F':
			c = c - 'A' + 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// view is b read as a string without copying it. The decoder never
// keeps a view: intern copies what the job holds.
func view(b []byte) string {
	return unsafe.String(unsafe.SliceData(b), len(b))
}
