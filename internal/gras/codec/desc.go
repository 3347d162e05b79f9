// Package codec implements the wire formats compared in the paper's
// Pastry experiment: the GRAS native NDR format ("receiver makes it
// right": data travels in the sender's representation and is only
// converted on heterogeneous exchanges), an MPICH-like canonical XDR
// format, an OmniORB-like CDR format, a PBIO-like self-describing
// binary format, and a plain-text XML format.
//
// All codecs serialize Go values through the same architecture
// descriptors and type descriptions, so the comparison measures exactly
// what the paper's tables measure: wire-format encode/decode cost and
// bytes on the wire between architectures of different endianness.
package codec

import (
	"errors"
	"fmt"
	"reflect"
)

// Kind is the category of a described type.
type Kind int

// Description kinds.
const (
	KindInvalid Kind = iota
	KindBool
	KindInt8
	KindInt16
	KindInt32
	KindInt64
	KindUint8
	KindUint16
	KindUint32
	KindUint64
	KindFloat32
	KindFloat64
	KindString
	KindStruct
	KindSlice // dynamically sized array
	KindArray // fixed-size array
)

var kindNames = map[Kind]string{
	KindBool: "bool", KindInt8: "int8", KindInt16: "int16",
	KindInt32: "int32", KindInt64: "int64", KindUint8: "uint8",
	KindUint16: "uint16", KindUint32: "uint32", KindUint64: "uint64",
	KindFloat32: "float32", KindFloat64: "float64", KindString: "string",
	KindStruct: "struct", KindSlice: "slice", KindArray: "array",
}

func (k Kind) String() string {
	if n, ok := kindNames[k]; ok {
		return n
	}
	return "invalid"
}

// FixedSize returns the wire size in bytes of fixed-width kinds, or 0
// for variable-size kinds (string, struct, slice, array).
func (k Kind) FixedSize() int {
	switch k {
	case KindBool, KindInt8, KindUint8:
		return 1
	case KindInt16, KindUint16:
		return 2
	case KindInt32, KindUint32, KindFloat32:
		return 4
	case KindInt64, KindUint64, KindFloat64:
		return 8
	default:
		return 0
	}
}

// Field is a named member of a struct description.
type Field struct {
	Name string
	Desc *Desc

	index int // position in the Go struct: the walks read reflect.Value.Field(index)
}

// Desc describes a type for cross-architecture exchange.
type Desc struct {
	Name   string
	Kind   Kind
	Fields []Field // KindStruct
	Elem   *Desc   // KindSlice / KindArray
	Len    int     // KindArray

	goType reflect.Type
}

// GoType returns the reflect.Type the description was derived from.
func (d *Desc) GoType() reflect.Type { return d.goType }

// ErrUnsupported reports a Go type the data-description system cannot
// exchange (pointers, maps, channels, interfaces, functions).
var ErrUnsupported = errors.New("gras: unsupported type for data description")

// Describe derives the description of a Go value's type. Supported:
// booleans, fixed-width and platform integers, floats, strings, structs
// of supported types (exported fields only), slices and fixed arrays.
func Describe(v any) (*Desc, error) {
	if v == nil {
		return nil, fmt.Errorf("%w: nil", ErrUnsupported)
	}
	return describeType(reflect.TypeOf(v))
}

func describeType(t reflect.Type) (*Desc, error) {
	d := &Desc{Name: t.String(), goType: t}
	switch t.Kind() {
	case reflect.Bool:
		d.Kind = KindBool
	case reflect.Int8:
		d.Kind = KindInt8
	case reflect.Int16:
		d.Kind = KindInt16
	case reflect.Int32:
		d.Kind = KindInt32
	case reflect.Int64, reflect.Int:
		d.Kind = KindInt64
	case reflect.Uint8:
		d.Kind = KindUint8
	case reflect.Uint16:
		d.Kind = KindUint16
	case reflect.Uint32:
		d.Kind = KindUint32
	case reflect.Uint64, reflect.Uint:
		d.Kind = KindUint64
	case reflect.Float32:
		d.Kind = KindFloat32
	case reflect.Float64:
		d.Kind = KindFloat64
	case reflect.String:
		d.Kind = KindString
	case reflect.Struct:
		d.Kind = KindStruct
		for i := 0; i < t.NumField(); i++ {
			f := t.Field(i)
			if !f.IsExported() {
				continue
			}
			fd, err := describeType(f.Type)
			if err != nil {
				return nil, fmt.Errorf("field %s.%s: %w", t.Name(), f.Name, err)
			}
			d.Fields = append(d.Fields, Field{Name: f.Name, Desc: fd, index: i})
		}
	case reflect.Slice:
		ed, err := describeType(t.Elem())
		if err != nil {
			return nil, err
		}
		d.Kind = KindSlice
		d.Elem = ed
	case reflect.Array:
		ed, err := describeType(t.Elem())
		if err != nil {
			return nil, err
		}
		d.Kind = KindArray
		d.Elem = ed
		d.Len = t.Len()
	default:
		return nil, fmt.Errorf("%w: %s", ErrUnsupported, t.Kind())
	}
	return d, nil
}
