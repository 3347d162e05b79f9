// The Codec interface and the shared reflection-driven walk used by the
// binary codecs.

package codec

import (
	"fmt"
	"math"
	"reflect"
)

// Codec is one wire format of the Pastry comparison.
type Codec interface {
	// Name returns the format's display name (as in the paper's table).
	Name() string
	// Encode serializes v (which must match d's Go type) as emitted by
	// architecture `from`. The result is a self-contained frame.
	Encode(d *Desc, v any, from Arch) ([]byte, error)
	// Decode rebuilds a value of d's Go type on architecture `to`.
	Decode(d *Desc, data []byte, to Arch) (any, error)
}

// All returns one instance of every codec, in the paper's table order.
func All() []Codec {
	return []Codec{NDR{}, XDR{}, CDR{}, PBIO{}, XML{}}
}

// ByName returns the codec with the given name, or nil.
func ByName(name string) Codec {
	for _, c := range All() {
		if c.Name() == name {
			return c
		}
	}
	return nil
}

// layout is how the shared walk lays a value out on the wire.
type layout uint8

const (
	// native packs every value in the writer's byte order (NDR, PBIO).
	native layout = iota
	// aligned pads each scalar to its natural alignment and each
	// string or slice count to 4 (CDR).
	aligned
	// xdr widens bool and 8- and 16-bit integers to one 4-byte word,
	// sign-extending signed kinds, and pads each string's bytes to 4
	// after them; there is no other alignment.
	xdr
)

// width returns the wire size of kind k under l: 0 for strings and
// composite kinds.
func (l layout) width(k Kind) int {
	n := k.FixedSize()
	if l == xdr && n > 0 && n < 4 {
		return 4
	}
	return n
}

// encodeFrame walks v after the header w already holds and returns the
// frame.
func encodeFrame(w *writer, d *Desc, v any, l layout) ([]byte, error) {
	if err := encodeValue(w, d, reflect.ValueOf(v), l); err != nil {
		return nil, err
	}
	return w.buf, nil
}

// encodeValue walks a described value, writing it through w.
func encodeValue(w *writer, d *Desc, v reflect.Value, l layout) error {
	n := l.width(d.Kind)
	if l == aligned && n > 1 {
		w.pad(n)
	}
	switch d.Kind {
	case KindBool:
		var b uint64
		if v.Bool() {
			b = 1
		}
		w.word(b, n)
	case KindInt8, KindInt16, KindInt32, KindInt64:
		w.word(uint64(v.Int()), n)
	case KindUint8, KindUint16, KindUint32, KindUint64:
		w.word(v.Uint(), n)
	case KindFloat32:
		w.word(uint64(math.Float32bits(float32(v.Float()))), n)
	case KindFloat64:
		w.word(math.Float64bits(v.Float()), n)
	case KindString:
		s := v.String()
		if l == aligned {
			w.pad(4)
		}
		w.word(uint64(len(s)), 4)
		w.buf = append(w.buf, s...)
		if l == xdr {
			w.pad(4)
		}
	case KindStruct:
		for _, f := range d.Fields {
			if err := encodeValue(w, f.Desc, v.Field(f.index), l); err != nil {
				return err
			}
		}
	case KindSlice, KindArray:
		if d.Kind == KindSlice {
			if l == aligned {
				w.pad(4)
			}
			w.word(uint64(v.Len()), 4)
		}
		for i := 0; i < v.Len(); i++ {
			if err := encodeValue(w, d.Elem, v.Index(i), l); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("codec: cannot encode kind %v", d.Kind)
	}
	return nil
}

// decodeFrame reads a fresh value of d's Go type from r.
func decodeFrame(r *reader, d *Desc, l layout) (any, error) {
	out, err := newValueFor(d)
	if err != nil {
		return nil, err
	}
	if err := decodeValue(r, d, out, l); err != nil {
		return nil, err
	}
	return out.Interface(), nil
}

// decodeValue reads a described value from r into the addressable
// reflect.Value v. A scalar that does not fit its kind (a bool other
// than 0 or 1, a widened XDR word out of range) is an error.
func decodeValue(r *reader, d *Desc, v reflect.Value, l layout) error {
	n := l.width(d.Kind)
	if l == aligned && n > 1 {
		if err := r.skipPad(n); err != nil {
			return err
		}
	}
	var x uint64
	if n > 0 {
		var err error
		if x, err = r.word(n); err != nil {
			return err
		}
	}
	switch d.Kind {
	case KindBool:
		if x > 1 {
			return fmt.Errorf("codec: bool encoded as %d", x)
		}
		v.SetBool(x == 1)
	case KindInt8, KindInt16, KindInt32, KindInt64:
		s := int64(x<<(64-8*n)) >> (64 - 8*n) // sign-extend the n-byte word
		if v.OverflowInt(s) {
			return fmt.Errorf("codec: %d overflows %v", s, d.Kind)
		}
		v.SetInt(s)
	case KindUint8, KindUint16, KindUint32, KindUint64:
		if v.OverflowUint(x) {
			return fmt.Errorf("codec: %d overflows %v", x, d.Kind)
		}
		v.SetUint(x)
	case KindFloat32:
		v.SetFloat(float64(math.Float32frombits(uint32(x))))
	case KindFloat64:
		v.SetFloat(math.Float64frombits(x))
	case KindString:
		if l == aligned {
			if err := r.skipPad(4); err != nil {
				return err
			}
		}
		n, err := r.word(4)
		if err != nil {
			return err
		}
		b, err := r.raw(int(n))
		if err != nil {
			return err
		}
		v.SetString(string(b))
		if l == xdr {
			return r.skipPad(4)
		}
	case KindStruct:
		for _, f := range d.Fields {
			if err := decodeValue(r, f.Desc, v.Field(f.index), l); err != nil {
				return err
			}
		}
	case KindSlice, KindArray:
		if d.Kind == KindSlice {
			if l == aligned {
				if err := r.skipPad(4); err != nil {
					return err
				}
			}
			n, err := r.word(4)
			if err != nil {
				return err
			}
			if n > uint64(r.remaining()) {
				return ErrShortBuffer // defensive cap against hostile lengths
			}
			v.Set(reflect.MakeSlice(v.Type(), int(n), int(n)))
		}
		for i := 0; i < v.Len(); i++ {
			if err := decodeValue(r, d.Elem, v.Index(i), l); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("codec: cannot decode kind %v", d.Kind)
	}
	return nil
}

// newValueFor allocates a fresh addressable value of d's Go type.
func newValueFor(d *Desc) (reflect.Value, error) {
	t := d.GoType()
	if t == nil {
		return reflect.Value{}, fmt.Errorf("codec: description %q has no Go type", d.Name)
	}
	return reflect.New(t).Elem(), nil
}
