// Byte-level encode/decode helpers with explicit endianness. The swap
// work on heterogeneous exchanges is really performed, so benchmarks of
// the codecs measure genuine conversion cost.

package codec

import (
	"encoding/binary"
	"errors"
)

// ErrShortBuffer reports truncated input during decoding.
var ErrShortBuffer = errors.New("codec: short buffer")

// order is encoding/binary's reading and appending halves of one byte
// order.
type order interface {
	binary.ByteOrder
	binary.AppendByteOrder
}

func (b ByteOrder) binary() order {
	if b == BigEndian {
		return binary.BigEndian
	}
	return binary.LittleEndian
}

// writer accumulates wire bytes in a chosen byte order.
type writer struct {
	buf   []byte
	order order
}

func newWriter(o ByteOrder) *writer {
	return &writer{buf: make([]byte, 0, 256), order: o.binary()}
}

// word appends the low n bytes of x (n is 1, 2, 4 or 8).
func (w *writer) word(x uint64, n int) {
	switch n {
	case 1:
		w.buf = append(w.buf, byte(x))
	case 2:
		w.buf = w.order.AppendUint16(w.buf, uint16(x))
	case 4:
		w.buf = w.order.AppendUint32(w.buf, uint32(x))
	default:
		w.buf = w.order.AppendUint64(w.buf, x)
	}
}

// pad appends zero bytes until the length is a multiple of n.
func (w *writer) pad(n int) {
	for len(w.buf)%n != 0 {
		w.buf = append(w.buf, 0)
	}
}

// reader consumes wire bytes in a chosen byte order.
type reader struct {
	buf   []byte
	pos   int
	order order
}

func newReader(buf []byte, o ByteOrder) *reader {
	return &reader{buf: buf, order: o.binary()}
}

func (r *reader) remaining() int { return len(r.buf) - r.pos }

// word reads an n-byte unsigned word (n is 1, 2, 4 or 8).
func (r *reader) word(n int) (uint64, error) {
	b, err := r.raw(n)
	switch {
	case err != nil:
		return 0, err
	case n == 1:
		return uint64(b[0]), nil
	case n == 2:
		return uint64(r.order.Uint16(b)), nil
	case n == 4:
		return uint64(r.order.Uint32(b)), nil
	}
	return r.order.Uint64(b), nil
}

func (r *reader) raw(n int) ([]byte, error) {
	if n < 0 || r.remaining() < n {
		return nil, ErrShortBuffer
	}
	b := r.buf[r.pos : r.pos+n]
	r.pos += n
	return b, nil
}

// skipPad consumes zero padding up to a multiple of n.
func (r *reader) skipPad(n int) error {
	for r.pos%n != 0 {
		b, err := r.word(1)
		if err != nil {
			return err
		}
		if b != 0 {
			return errors.New("codec: non-zero padding")
		}
	}
	return nil
}
