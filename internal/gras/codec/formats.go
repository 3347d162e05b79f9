// The five wire formats of the Pastry comparison.

package codec

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
)

// --- GRAS NDR ---------------------------------------------------------------

// NDR is the GRAS native wire format: the payload travels in the
// sender's native representation, prefixed by one architecture byte.
// Homogeneous exchanges need no conversion at all; on heterogeneous
// exchanges only the receiver converts ("receiver makes it right").
type NDR struct{}

// Name implements Codec.
func (NDR) Name() string { return "GRAS" }

// Encode implements Codec.
func (NDR) Encode(d *Desc, v any, from Arch) ([]byte, error) {
	return encodeFrame(tagged(from), d, v, native)
}

// Decode implements Codec.
func (NDR) Decode(d *Desc, data []byte, to Arch) (any, error) {
	r, err := untag(data)
	if err != nil {
		return nil, err
	}
	return decodeFrame(r, d, native)
}

// tagged starts an NDR frame (PBIO's too): the sender's architecture
// byte, then whatever follows in the sender's byte order.
func tagged(from Arch) *writer {
	w := newWriter(from.Order)
	w.word(uint64(from.ID), 1)
	return w
}

// untag reads a tagged frame's architecture byte and returns a reader
// of the rest in the sender's byte order (reads convert only if the
// orders differ).
func untag(data []byte) (*reader, error) {
	if len(data) < 1 {
		return nil, ErrShortBuffer
	}
	sender, ok := ArchByID(data[0])
	if !ok {
		return nil, fmt.Errorf("codec: unknown sender architecture %d", data[0])
	}
	return newReader(data[1:], sender.Order), nil
}

// --- MPICH-like XDR ---------------------------------------------------------

// XDR is an MPICH-like canonical format: everything is converted to
// big-endian with 4-byte units on the wire (XDR rules), so *both* sides
// pay conversion on little-endian hosts and small scalars are inflated
// to four bytes.
type XDR struct{}

// Name implements Codec.
func (XDR) Name() string { return "MPICH" }

// Encode implements Codec.
func (XDR) Encode(d *Desc, v any, from Arch) ([]byte, error) {
	return encodeFrame(newWriter(BigEndian), d, v, xdr)
}

// Decode implements Codec.
func (XDR) Decode(d *Desc, data []byte, to Arch) (any, error) {
	return decodeFrame(newReader(data, BigEndian), d, xdr)
}

// --- OmniORB-like CDR -------------------------------------------------------

// CDR is an OmniORB/GIOP-like format: a 12-byte GIOP-style header with
// an endianness flag, natural alignment with padding, and
// receiver-makes-right conversion.
type CDR struct{}

// Name implements Codec.
func (CDR) Name() string { return "OmniORB" }

// giopHeader mimics GIOP: magic, version, flags (endianness), type,
// length placeholder.
var giopMagic = []byte{'G', 'I', 'O', 'P', 1, 2, 0, 0}

// Encode implements Codec.
func (CDR) Encode(d *Desc, v any, from Arch) ([]byte, error) {
	w := newWriter(from.Order)
	w.buf = append(w.buf, giopMagic...)
	if from.Order == LittleEndian {
		w.buf[6] = 1 // endianness flag
	}
	w.word(0, 4) // body length, patched below in sender order
	frame, err := encodeFrame(w, d, v, aligned)
	if err != nil {
		return nil, err
	}
	w.order.PutUint32(frame[8:12], uint32(len(frame)-12))
	return frame, nil
}

// Decode implements Codec.
func (CDR) Decode(d *Desc, data []byte, to Arch) (any, error) {
	if len(data) < 12 {
		return nil, ErrShortBuffer
	}
	if string(data[:4]) != "GIOP" {
		return nil, fmt.Errorf("codec: bad GIOP magic")
	}
	order := BigEndian
	if data[6] == 1 {
		order = LittleEndian
	}
	r := newReader(data, order)
	r.pos = 12 // skip the header, keeping offsets frame-relative for alignment
	return decodeFrame(r, d, aligned)
}

// --- PBIO-like self-describing binary ----------------------------------------

// PBIO is a PBIO-like format: native-representation binary payload
// preceded by self-describing metadata (field names and kinds), so a
// receiver can decode without prior agreement; metadata is what buys
// PBIO its flexibility and what we charge per message.
type PBIO struct{}

// Name implements Codec.
func (PBIO) Name() string { return "PBIO" }

// Encode implements Codec: NDR's frame with the self-description
// between the architecture byte and the value.
func (PBIO) Encode(d *Desc, v any, from Arch) ([]byte, error) {
	w := tagged(from)
	writeMeta(w, d)
	return encodeFrame(w, d, v, native)
}

// Decode implements Codec.
func (PBIO) Decode(d *Desc, data []byte, to Arch) (any, error) {
	r, err := untag(data)
	if err != nil {
		return nil, err
	}
	if err := checkMeta(r, d); err != nil {
		return nil, err
	}
	return decodeFrame(r, d, native)
}

func writeMeta(w *writer, d *Desc) {
	w.word(uint64(d.Kind), 1)
	switch d.Kind {
	case KindStruct:
		w.word(uint64(len(d.Fields)), 2)
		for _, f := range d.Fields {
			w.word(uint64(len(f.Name)), 2)
			w.buf = append(w.buf, f.Name...)
			writeMeta(w, f.Desc)
		}
	case KindSlice:
		writeMeta(w, d.Elem)
	case KindArray:
		w.word(uint64(d.Len), 4)
		writeMeta(w, d.Elem)
	}
}

// checkMeta parses and validates the self-description against the
// expected description (the real PBIO reconciles differing formats;
// validation is the cost we model).
func checkMeta(r *reader, d *Desc) error {
	k, err := r.word(1)
	if err != nil {
		return err
	}
	if Kind(k) != d.Kind {
		return fmt.Errorf("codec: pbio metadata kind %v, want %v", Kind(k), d.Kind)
	}
	switch d.Kind {
	case KindStruct:
		n, err := r.word(2)
		if err != nil {
			return err
		}
		if int(n) != len(d.Fields) {
			return fmt.Errorf("codec: pbio field count %d, want %d", n, len(d.Fields))
		}
		for _, f := range d.Fields {
			ln, err := r.word(2)
			if err != nil {
				return err
			}
			name, err := r.raw(int(ln))
			if err != nil {
				return err
			}
			if string(name) != f.Name {
				return fmt.Errorf("codec: pbio field %q, want %q", name, f.Name)
			}
			if err := checkMeta(r, f.Desc); err != nil {
				return err
			}
		}
	case KindSlice:
		return checkMeta(r, d.Elem)
	case KindArray:
		n, err := r.word(4)
		if err != nil {
			return err
		}
		if int(n) != d.Len {
			return fmt.Errorf("codec: pbio array len %d, want %d", n, d.Len)
		}
		return checkMeta(r, d.Elem)
	}
	return nil
}

// --- XML ----------------------------------------------------------------------

// XML is a plain-text format: every scalar is formatted and parsed as
// text, the price the paper's XML column pays on every exchange.
type XML struct{}

// Name implements Codec.
func (XML) Name() string { return "XML" }

// Encode implements Codec.
func (XML) Encode(d *Desc, v any, from Arch) ([]byte, error) {
	var b strings.Builder
	b.WriteString("<?xml version=\"1.0\"?>")
	if err := xmlEncode(&b, "payload", d, reflect.ValueOf(v)); err != nil {
		return nil, err
	}
	return []byte(b.String()), nil
}

func xmlEscape(s string) string {
	r := strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;")
	return r.Replace(s)
}

func xmlUnescape(s string) string {
	r := strings.NewReplacer("&lt;", "<", "&gt;", ">", "&amp;", "&")
	return r.Replace(s)
}

func xmlEncode(b *strings.Builder, tag string, d *Desc, v reflect.Value) error {
	fmt.Fprintf(b, "<%s>", tag)
	switch d.Kind {
	case KindBool:
		fmt.Fprintf(b, "%t", v.Bool())
	case KindInt8, KindInt16, KindInt32, KindInt64:
		fmt.Fprintf(b, "%d", v.Int())
	case KindUint8, KindUint16, KindUint32, KindUint64:
		fmt.Fprintf(b, "%d", v.Uint())
	case KindFloat32:
		fmt.Fprintf(b, "%g", v.Float())
	case KindFloat64:
		fmt.Fprintf(b, "%.17g", v.Float())
	case KindString:
		b.WriteString(xmlEscape(v.String()))
	case KindStruct:
		for _, f := range d.Fields {
			if err := xmlEncode(b, f.Name, f.Desc, v.Field(f.index)); err != nil {
				return err
			}
		}
	case KindSlice, KindArray:
		n := v.Len()
		if d.Kind == KindSlice {
			fmt.Fprintf(b, "<len>%d</len>", n)
		}
		for i := 0; i < n; i++ {
			if err := xmlEncode(b, "item", d.Elem, v.Index(i)); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("codec: xml cannot encode %v", d.Kind)
	}
	fmt.Fprintf(b, "</%s>", tag)
	return nil
}

// Decode implements Codec.
func (XML) Decode(d *Desc, data []byte, to Arch) (any, error) {
	s := string(data)
	if i := strings.Index(s, "?>"); i >= 0 {
		s = s[i+2:]
	}
	p := &xmlParser{s: s}
	out, err := newValueFor(d)
	if err != nil {
		return nil, err
	}
	if err := p.decode("payload", d, out); err != nil {
		return nil, err
	}
	return out.Interface(), nil
}

// xmlParser is a minimal recursive-descent parser for the emitter's
// output (a strict subset of XML).
type xmlParser struct {
	s   string
	pos int
}

func (p *xmlParser) expect(tok string) error {
	if !strings.HasPrefix(p.s[p.pos:], tok) {
		end := p.pos + 20
		if end > len(p.s) {
			end = len(p.s)
		}
		return fmt.Errorf("codec: xml expected %q at %q", tok, p.s[p.pos:end])
	}
	p.pos += len(tok)
	return nil
}

// text reads until the next '<'.
func (p *xmlParser) text() string {
	start := p.pos
	for p.pos < len(p.s) && p.s[p.pos] != '<' {
		p.pos++
	}
	return p.s[start:p.pos]
}

func (p *xmlParser) decode(tag string, d *Desc, v reflect.Value) error {
	if err := p.expect("<" + tag + ">"); err != nil {
		return err
	}
	switch d.Kind {
	case KindBool:
		t := p.text()
		v.SetBool(t == "true")
	case KindInt8, KindInt16, KindInt32, KindInt64:
		n, err := strconv.ParseInt(p.text(), 10, 64)
		if err != nil {
			return fmt.Errorf("codec: xml int: %w", err)
		}
		v.SetInt(n)
	case KindUint8, KindUint16, KindUint32, KindUint64:
		n, err := strconv.ParseUint(p.text(), 10, 64)
		if err != nil {
			return fmt.Errorf("codec: xml uint: %w", err)
		}
		v.SetUint(n)
	case KindFloat32, KindFloat64:
		f, err := strconv.ParseFloat(p.text(), 64)
		if err != nil {
			return fmt.Errorf("codec: xml float: %w", err)
		}
		v.SetFloat(f)
	case KindString:
		v.SetString(xmlUnescape(p.text()))
	case KindStruct:
		for _, f := range d.Fields {
			if err := p.decode(f.Name, f.Desc, v.Field(f.index)); err != nil {
				return err
			}
		}
	case KindSlice:
		if err := p.expect("<len>"); err != nil {
			return err
		}
		n, err := strconv.Atoi(p.text())
		if err != nil {
			return fmt.Errorf("codec: xml slice len: %w", err)
		}
		if err := p.expect("</len>"); err != nil {
			return err
		}
		if n < 0 || n > len(p.s) {
			return fmt.Errorf("codec: xml slice len %d out of bounds", n)
		}
		sl := reflect.MakeSlice(v.Type(), n, n)
		for i := 0; i < n; i++ {
			if err := p.decode("item", d.Elem, sl.Index(i)); err != nil {
				return err
			}
		}
		v.Set(sl)
	case KindArray:
		for i := 0; i < d.Len; i++ {
			if err := p.decode("item", d.Elem, v.Index(i)); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("codec: xml cannot decode %v", d.Kind)
	}
	return p.expect("</" + tag + ">")
}
