package codec

import (
	"reflect"
	"testing"
	"testing/quick"
)

// pastryMsg is the message shape used across the codec tests — the same
// Pastry-like routing message the benchmark harness exchanges.
type pastryMsg struct {
	MsgID    uint64
	Hops     int32
	Key      [4]uint32
	SrcDescr string
	Route    []nodeEntry
	Alive    bool
	Load     float64
}

type nodeEntry struct {
	NodeID uint32
	Addr   string
	Metric float32
}

func samplePastry() pastryMsg {
	return pastryMsg{
		MsgID:    0xDEADBEEFCAFE,
		Hops:     3,
		Key:      [4]uint32{1, 2, 3, 0xFFFFFFFF},
		SrcDescr: "node-42.site-a.example.org",
		Route: []nodeEntry{
			{NodeID: 17, Addr: "10.0.0.17:4017", Metric: 0.25},
			{NodeID: 99, Addr: "10.0.3.99:4099", Metric: 1.5},
		},
		Alive: true,
		Load:  0.625,
	}
}

func archPairs() [][2]Arch {
	var out [][2]Arch
	for _, a := range Archs {
		for _, b := range Archs {
			out = append(out, [2]Arch{a, b})
		}
	}
	return out
}

func TestDescribePastry(t *testing.T) {
	d, err := Describe(pastryMsg{})
	if err != nil {
		t.Fatalf("Describe: %v", err)
	}
	if d.Kind != KindStruct || len(d.Fields) != 7 {
		t.Fatalf("desc = %+v", d)
	}
	if d.Fields[2].Desc.Kind != KindArray || d.Fields[2].Desc.Len != 4 {
		t.Errorf("Key field: %+v", d.Fields[2].Desc)
	}
	if d.Fields[4].Desc.Kind != KindSlice || d.Fields[4].Desc.Elem.Kind != KindStruct {
		t.Errorf("Route field: %+v", d.Fields[4].Desc)
	}
}

func TestDescribeRejectsUnsupported(t *testing.T) {
	for _, v := range []any{
		nil,
		map[string]int{},
		make(chan int),
		func() {},
		&struct{}{},
		struct{ P *int }{},
	} {
		if _, err := Describe(v); err == nil {
			t.Errorf("Describe(%T) succeeded, want error", v)
		}
	}
}

func TestDescribeSkipsUnexported(t *testing.T) {
	type mixed struct {
		Public  int32
		private string //nolint:unused — exercised via reflection
	}
	d, err := Describe(mixed{})
	if err != nil {
		t.Fatalf("Describe: %v", err)
	}
	if len(d.Fields) != 1 || d.Fields[0].Name != "Public" {
		t.Errorf("fields = %+v", d.Fields)
	}
}

// Round-trip of the Pastry message through every codec and every
// architecture pair.
func TestRoundTripAllCodecsAllArchs(t *testing.T) {
	msg := samplePastry()
	d, err := Describe(msg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range All() {
		for _, pair := range archPairs() {
			from, to := pair[0], pair[1]
			frame, err := c.Encode(d, msg, from)
			if err != nil {
				t.Errorf("%s %s->%s encode: %v", c.Name(), from.Name, to.Name, err)
				continue
			}
			got, err := c.Decode(d, frame, to)
			if err != nil {
				t.Errorf("%s %s->%s decode: %v", c.Name(), from.Name, to.Name, err)
				continue
			}
			if !reflect.DeepEqual(got, msg) {
				t.Errorf("%s %s->%s: round trip mismatch\ngot  %+v\nwant %+v",
					c.Name(), from.Name, to.Name, got, msg)
			}
		}
	}
}

func TestEmptySliceRoundTrip(t *testing.T) {
	msg := pastryMsg{Route: []nodeEntry{}}
	d, _ := Describe(msg)
	for _, c := range All() {
		frame, err := c.Encode(d, msg, ArchX86)
		if err != nil {
			t.Fatalf("%s encode: %v", c.Name(), err)
		}
		got, err := c.Decode(d, frame, ArchSparc)
		if err != nil {
			t.Fatalf("%s decode: %v", c.Name(), err)
		}
		if len(got.(pastryMsg).Route) != 0 {
			t.Errorf("%s: route not empty", c.Name())
		}
	}
}

func TestScalarsRoundTrip(t *testing.T) {
	type scalars struct {
		B   bool
		I8  int8
		I16 int16
		I32 int32
		I64 int64
		U8  uint8
		U16 uint16
		U32 uint32
		U64 uint64
		F32 float32
		F64 float64
		S   string
	}
	v := scalars{
		B: true, I8: -8, I16: -1600, I32: -320000, I64: -1 << 40,
		U8: 200, U16: 65000, U32: 4e9, U64: 1 << 60,
		F32: 3.25, F64: -2.5e-10, S: "héllo <world> & others",
	}
	d, err := Describe(v)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range All() {
		for _, pair := range archPairs() {
			frame, err := c.Encode(d, v, pair[0])
			if err != nil {
				t.Fatalf("%s encode: %v", c.Name(), err)
			}
			got, err := c.Decode(d, frame, pair[1])
			if err != nil {
				t.Fatalf("%s decode (%s->%s): %v", c.Name(), pair[0].Name, pair[1].Name, err)
			}
			if got.(scalars) != v {
				t.Errorf("%s %s->%s: %+v != %+v", c.Name(), pair[0].Name, pair[1].Name, got, v)
			}
		}
	}
}

func TestNDRHomogeneousIsNative(t *testing.T) {
	// On a homogeneous exchange, NDR's payload bytes are the sender's
	// native representation: first byte after the arch tag of a u32
	// 0x01020304 on x86 (LE) must be 0x04.
	type one struct{ X uint32 }
	d, _ := Describe(one{})
	frame, err := NDR{}.Encode(d, one{X: 0x01020304}, ArchX86)
	if err != nil {
		t.Fatal(err)
	}
	if frame[0] != ArchX86.ID || frame[1] != 0x04 {
		t.Errorf("frame = % x, want arch byte then LE payload", frame[:5])
	}
	frameBE, _ := NDR{}.Encode(d, one{X: 0x01020304}, ArchSparc)
	if frameBE[1] != 0x01 {
		t.Errorf("sparc frame = % x, want BE payload", frameBE[:5])
	}
}

func TestXDRIsCanonicalBigEndian(t *testing.T) {
	type one struct{ X uint32 }
	d, _ := Describe(one{})
	le, _ := XDR{}.Encode(d, one{X: 0x01020304}, ArchX86)
	be, _ := XDR{}.Encode(d, one{X: 0x01020304}, ArchSparc)
	if string(le) != string(be) {
		t.Error("XDR output depends on sender architecture")
	}
	if le[0] != 0x01 {
		t.Errorf("XDR not big-endian: % x", le)
	}
}

func TestXDRInflatesSmallScalars(t *testing.T) {
	type small struct {
		A int8
		B int8
	}
	d, _ := Describe(small{})
	frame, _ := XDR{}.Encode(d, small{1, 2}, ArchX86)
	if len(frame) != 8 {
		t.Errorf("XDR frame = %d bytes, want 8 (two 4-byte units)", len(frame))
	}
	ndr, _ := NDR{}.Encode(d, small{1, 2}, ArchX86)
	if len(ndr) != 3 { // arch byte + 2 payload bytes
		t.Errorf("NDR frame = %d bytes, want 3", len(ndr))
	}
}

func TestCDRHasGIOPHeaderAndAlignment(t *testing.T) {
	type mix struct {
		A uint8
		B uint64
	}
	d, _ := Describe(mix{})
	frame, err := CDR{}.Encode(d, mix{1, 2}, ArchX86)
	if err != nil {
		t.Fatal(err)
	}
	if string(frame[:4]) != "GIOP" {
		t.Errorf("no GIOP magic: % x", frame[:4])
	}
	// 12 header + 1 (A) + 3 pad + ... wait: u64 aligns to 8 from
	// offset 13 -> pad to 16 -> 8 bytes: total 24.
	if len(frame) != 24 {
		t.Errorf("frame = %d bytes, want 24 with alignment", len(frame))
	}
}

func TestPBIOCarriesMetadata(t *testing.T) {
	type m struct{ FieldWithLongName uint32 }
	d, _ := Describe(m{})
	pb, _ := PBIO{}.Encode(d, m{7}, ArchX86)
	ndr, _ := NDR{}.Encode(d, m{7}, ArchX86)
	if len(pb) <= len(ndr) {
		t.Errorf("PBIO (%d B) not larger than NDR (%d B) despite metadata", len(pb), len(ndr))
	}
	// Metadata must mention the field name.
	if !contains(pb, []byte("FieldWithLongName")) {
		t.Error("field name not in PBIO metadata")
	}
}

func TestPBIORejectsForeignMetadata(t *testing.T) {
	type a struct{ X uint32 }
	type b struct{ Y uint32 }
	da, _ := Describe(a{})
	db, _ := Describe(b{})
	frame, _ := PBIO{}.Encode(da, a{1}, ArchX86)
	if _, err := (PBIO{}).Decode(db, frame, ArchX86); err == nil {
		t.Error("PBIO accepted mismatched metadata")
	}
}

func TestXMLIsTextual(t *testing.T) {
	msg := samplePastry()
	d, _ := Describe(msg)
	frame, err := XML{}.Encode(d, msg, ArchX86)
	if err != nil {
		t.Fatal(err)
	}
	s := string(frame)
	for _, want := range []string{"<MsgID>", "<payload>", "node-42", "<len>2</len>"} {
		if !containsStr(s, want) {
			t.Errorf("XML output missing %q", want)
		}
	}
}

func TestXMLEscaping(t *testing.T) {
	type s struct{ S string }
	d, _ := Describe(s{})
	v := s{S: "<evil> & </payload>"}
	frame, err := XML{}.Encode(d, v, ArchX86)
	if err != nil {
		t.Fatal(err)
	}
	got, err := XML{}.Decode(d, frame, ArchX86)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if got.(s) != v {
		t.Errorf("escaping broken: %+v", got)
	}
}

func TestDecodeErrorsOnTruncation(t *testing.T) {
	msg := samplePastry()
	d, _ := Describe(msg)
	for _, c := range All() {
		frame, _ := c.Encode(d, msg, ArchX86)
		for _, cut := range []int{0, 1, len(frame) / 2, len(frame) - 1} {
			if _, err := c.Decode(d, frame[:cut], ArchX86); err == nil {
				t.Errorf("%s: decoding %d/%d bytes succeeded", c.Name(), cut, len(frame))
			}
		}
	}
}

func TestDecodeHostileSliceLength(t *testing.T) {
	type s struct{ V []uint64 }
	d, _ := Describe(s{})
	// NDR frame claiming 2^31 elements but carrying none.
	w := newWriter(LittleEndian)
	w.u8(ArchX86.ID)
	w.u32(1 << 31)
	if _, err := (NDR{}).Decode(d, w.bytes(), ArchX86); err == nil {
		t.Error("hostile slice length accepted")
	}
}

func TestCodecByName(t *testing.T) {
	for _, name := range []string{"GRAS", "MPICH", "OmniORB", "PBIO", "XML"} {
		if c := ByName(name); c == nil || c.Name() != name {
			t.Errorf("ByName(%q) = %v", name, c)
		}
	}
	if ByName("nope") != nil {
		t.Error("unknown codec resolved")
	}
}

func TestArchLookups(t *testing.T) {
	if a, ok := ArchByName("sparc"); !ok || a.Order != BigEndian {
		t.Error("sparc lookup wrong")
	}
	if a, ok := ArchByName(""); !ok || a.Name != "x86" {
		t.Error("default arch wrong")
	}
	if _, ok := ArchByName("vax"); ok {
		t.Error("vax resolved")
	}
	if a, ok := ArchByID(2); !ok || a.Name != "ppc" {
		t.Error("ID lookup wrong")
	}
	if _, ok := ArchByID(99); ok {
		t.Error("bad ID resolved")
	}
	if LittleEndian.String() == BigEndian.String() {
		t.Error("order strings equal")
	}
}

func TestKindStringsAndSizes(t *testing.T) {
	if KindUint32.String() != "uint32" || Kind(99).String() != "invalid" {
		t.Error("kind strings wrong")
	}
	if KindUint32.FixedSize() != 4 || KindFloat64.FixedSize() != 8 ||
		KindString.FixedSize() != 0 || KindBool.FixedSize() != 1 {
		t.Error("fixed sizes wrong")
	}
}

// Property: every codec round-trips arbitrary simple structs between
// arbitrary architecture pairs.
func TestRoundTripProperty(t *testing.T) {
	type payload struct {
		A int32
		B uint64
		C string
		D []int16
		E float64
	}
	d, err := Describe(payload{})
	if err != nil {
		t.Fatal(err)
	}
	codecs := All()
	f := func(a int32, b uint64, c string, dd []int16, e float64, ci, fi, ti uint8) bool {
		v := payload{A: a, B: b, C: c, D: dd, E: e}
		cdc := codecs[int(ci)%len(codecs)]
		from := Archs[int(fi)%len(Archs)]
		to := Archs[int(ti)%len(Archs)]
		frame, err := cdc.Encode(d, v, from)
		if err != nil {
			return false
		}
		got, err := cdc.Decode(d, frame, to)
		if err != nil {
			return false
		}
		g := got.(payload)
		if g.A != v.A || g.B != v.B || g.C != v.C || len(g.D) != len(v.D) {
			return false
		}
		for i := range g.D {
			if g.D[i] != v.D[i] {
				return false
			}
		}
		// NaN-safe float comparison.
		return (g.E == v.E) || (g.E != g.E && v.E != v.E)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func contains(hay, needle []byte) bool {
	return containsStr(string(hay), string(needle))
}

func containsStr(hay, needle string) bool {
	for i := 0; i+len(needle) <= len(hay); i++ {
		if hay[i:i+len(needle)] == needle {
			return true
		}
	}
	return false
}

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

// FuzzDecode: every codec, decoding any bytes on any architecture,
// returns an error or a value that encodes and decodes back to itself.
func FuzzDecode(f *testing.F) {
	d, err := Describe(fuzzMsg{})
	if err != nil {
		f.Fatal(err)
	}
	seed := fuzzMsg{
		ID: 7, Alive: true, Hops: -3, Name: "a<b&c", Key: [3]uint16{1, 2, 0xFFFF},
		Tags:  []string{"x", ""},
		Peers: []fuzzPeer{{Port: 4000, Addr: "10.0.0.1", Seen: []uint8{1, 2}}, {}},
		Grid:  [][]int64{{1, -1}, {}, {1 << 40}},
	}
	for _, c := range All() {
		for _, from := range Archs {
			frame, err := c.Encode(d, seed, from)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(frame)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range All() {
			for _, to := range Archs {
				v, err := c.Decode(d, data, to)
				if err != nil {
					continue
				}
				frame, err := c.Encode(d, v, to)
				if err != nil {
					t.Fatalf("%s on %s: decoded %+v does not encode: %v", c.Name(), to.Name, v, err)
				}
				back, err := c.Decode(d, frame, to)
				if err != nil || !reflect.DeepEqual(back, v) {
					t.Fatalf("%s on %s: %+v re-decodes as %+v (%v)", c.Name(), to.Name, v, back, err)
				}
			}
		}
	})
}
