package codec_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/gras/codec"
	"repro/internal/pastry"
)

// fuzzMsg mixes every shape the decoders walk: scalars, strings, a
// fixed array, a slice of structs and nested slices. It has no float,
// so a decoded value can be compared with reflect.DeepEqual.
type fuzzMsg struct {
	ID    uint32
	Alive bool
	Hops  int8
	Name  string
	Key   [3]uint16
	Tags  []string
	Peers []fuzzPeer
	Grid  [][]int64
}

type fuzzPeer struct {
	Port int16
	Addr string
	Seen []uint8
}

var fuzzSeed = fuzzMsg{
	ID: 7, Alive: true, Hops: -3, Name: "a<b&c", Key: [3]uint16{1, 2, 0xFFFF},
	Tags:  []string{"x", ""},
	Peers: []fuzzPeer{{Port: 4000, Addr: "10.0.0.1", Seen: []uint8{1, 2}}, {Seen: []uint8{}}},
	Grid:  [][]int64{{1, -1}, {}, {1 << 40}},
}

// wirePin holds every frame the codecs emit for fuzzSeed and for the
// Pastry sample, per codec and sender architecture: its length and the
// first 8 bytes of its SHA-256.
var wirePin = map[string]string{
	"fuzz GRAS x86":        "109 1356f736a86c8ae3",
	"fuzz GRAS sparc":      "109 bee39571fea8d568",
	"fuzz GRAS ppc":        "109 31fa0a437f2f6646",
	"fuzz MPICH x86":       "136 2eea468281f2ffb0",
	"fuzz MPICH sparc":     "136 2eea468281f2ffb0",
	"fuzz MPICH ppc":       "136 2eea468281f2ffb0",
	"fuzz OmniORB x86":     "128 24f0aff5fe2423cd",
	"fuzz OmniORB sparc":   "128 e1eb495559b7fa1e",
	"fuzz OmniORB ppc":     "128 e1eb495559b7fa1e",
	"fuzz PBIO x86":        "200 51dd407b3a7c5398",
	"fuzz PBIO sparc":      "200 6d02fe22313f7cd7",
	"fuzz PBIO ppc":        "200 8caba0206513a80e",
	"fuzz XML x86":         "569 13a3e5e166815ff4",
	"fuzz XML sparc":       "569 13a3e5e166815ff4",
	"fuzz XML ppc":         "569 13a3e5e166815ff4",
	"pastry GRAS x86":      "31482 b2e72136b7b0d1fc",
	"pastry GRAS sparc":    "31482 209484c3c004fe3a",
	"pastry GRAS ppc":      "31482 6822208cc747893a",
	"pastry MPICH x86":     "34556 77daa17bcccf95ca",
	"pastry MPICH sparc":   "34556 77daa17bcccf95ca",
	"pastry MPICH ppc":     "34556 77daa17bcccf95ca",
	"pastry OmniORB x86":   "34576 0ee5ecd7c523f560",
	"pastry OmniORB sparc": "34576 0ff0cc65749a3d53",
	"pastry OmniORB ppc":   "34576 0ff0cc65749a3d53",
	"pastry PBIO x86":      "31640 9e6488776683e089",
	"pastry PBIO sparc":    "31640 956cf08b90ab1a91",
	"pastry PBIO ppc":      "31640 15398a47be73517f",
	"pastry XML x86":       "99927 8e32bea55bfcf8e3",
	"pastry XML sparc":     "99927 8e32bea55bfcf8e3",
	"pastry XML ppc":       "99927 8e32bea55bfcf8e3",
}

// TestWireBytesPin holds every codec's frames byte for byte, and checks
// that each frame decodes back to its value on every architecture.
func TestWireBytesPin(t *testing.T) {
	for _, m := range []struct {
		name string
		v    any
	}{{"fuzz", fuzzSeed}, {"pastry", pastry.Sample()}} {
		d, err := codec.Describe(m.v)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range codec.All() {
			for _, from := range codec.Archs {
				key := m.name + " " + c.Name() + " " + from.Name
				frame, err := c.Encode(d, m.v, from)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				sum := sha256.Sum256(frame)
				if got := fmt.Sprintf("%d %x", len(frame), sum[:8]); got != wirePin[key] {
					t.Errorf("%s: frame %q, pinned %q", key, got, wirePin[key])
				}
				for _, to := range codec.Archs {
					v, err := c.Decode(d, frame, to)
					if err != nil || !reflect.DeepEqual(v, m.v) {
						t.Errorf("%s: decodes on %s with error %v to a different value", key, to.Name, err)
					}
				}
			}
		}
	}
}

// TestXDRRejectsOutOfRangeWords: a widened XDR word must fit its kind,
// and a bool must be 0 or 1. Truncating them instead would round-trip,
// so FuzzDecode's round-trip oracle alone cannot see it.
func TestXDRRejectsOutOfRangeWords(t *testing.T) {
	d, err := codec.Describe(fuzzMsg{})
	if err != nil {
		t.Fatal(err)
	}
	good, err := codec.XDR{}.Encode(d, fuzzSeed, codec.ArchX86)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		at   int // offset of the field's word in good
		word []byte
	}{
		{"Alive=7", 4, []byte{0, 0, 0, 7}},
		{"Hops=300", 8, []byte{0, 0, 1, 0x2c}},
		{"Key[0]=65536", 24, []byte{0, 1, 0, 0}},
	} {
		frame := append([]byte(nil), good...)
		copy(frame[c.at:], c.word)
		if v, err := (codec.XDR{}).Decode(d, frame, codec.ArchX86); err == nil {
			t.Errorf("%s: decoded to %+v, want an error", c.name, v)
		}
	}
}

// FuzzDecode: every codec, decoding any bytes on any architecture,
// returns an error or a value that encodes and decodes back to itself.
// XDR is canonical besides: a frame it accepts re-encodes to the bytes
// it consumed.
func FuzzDecode(f *testing.F) {
	d, err := codec.Describe(fuzzMsg{})
	if err != nil {
		f.Fatal(err)
	}
	for _, c := range codec.All() {
		for _, from := range codec.Archs {
			frame, err := c.Encode(d, fuzzSeed, from)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(frame)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range codec.All() {
			for _, to := range codec.Archs {
				v, err := c.Decode(d, data, to)
				if err != nil {
					continue
				}
				frame, err := c.Encode(d, v, to)
				if err != nil {
					t.Fatalf("%s on %s: decoded %+v does not encode: %v", c.Name(), to.Name, v, err)
				}
				if _, ok := c.(codec.XDR); ok && !bytes.HasPrefix(data, frame) {
					t.Fatalf("XDR accepted % x but re-encodes it as % x", data, frame)
				}
				back, err := c.Decode(d, frame, to)
				if err != nil || !reflect.DeepEqual(back, v) {
					t.Fatalf("%s on %s: %+v re-decodes as %+v (%v)", c.Name(), to.Name, v, back, err)
				}
			}
		}
	})
}
