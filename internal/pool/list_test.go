package pool

import "testing"

// flip sets Enabled for the test and restores it afterwards.
func flip(t *testing.T, on bool) {
	old := Enabled
	Enabled = on
	t.Cleanup(func() { Enabled = old })
}

func TestListLIFOAndScoreboard(t *testing.T) {
	flip(t, true)
	var l List[*int]
	if x, ok := l.Get(); ok || x != nil {
		t.Fatalf("Get on an empty list = %v, %v", x, ok)
	}
	a, b, c := new(int), new(int), new(int)
	l.Put(a)
	l.Put(b)
	l.Put(c)
	if l.Len() != 3 {
		t.Fatalf("Len = %d, want 3", l.Len())
	}
	for i, want := range []*int{c, b} {
		if x, ok := l.Get(); !ok || x != want {
			t.Fatalf("Get %d = %p, %v: not last in, first out", i, x, ok)
		}
	}
	if slot := l.segs[0][:3]; slot[1] != nil || slot[2] != nil {
		t.Fatal("a popped slot still references its value: the list would pin what it handed out")
	}
	if got, want := l.Stat(), (Stat{Hit: 2, Miss: 1, Free: 1}); got != want {
		t.Fatalf("Stat = %+v, want %+v", got, want)
	}
	if it := l.Items(); len(it) != 1 || it[0] != a {
		t.Fatalf("Items = %v, want the one value left", it)
	}
}

// TestListSegments fills a list across several segment boundaries, then
// drains it past them and refills it: every value comes back last in,
// first out, Len follows, no storage is added on the refill, and every
// slot a Get vacated — in every segment — holds the zero value.
func TestListSegments(t *testing.T) {
	flip(t, true)
	var l List[*int]
	vals := make([]*int, 100) // segments of 8, 16, 32 and 64 slots
	for i := range vals {
		vals[i] = new(int)
		l.Put(vals[i])
		if l.Len() != i+1 {
			t.Fatalf("Len after %d Puts = %d", i+1, l.Len())
		}
	}
	if len(l.segs) != 4 {
		t.Fatalf("100 values sit in %d segments, want 4", len(l.segs))
	}
	drain := func(down int) {
		for i := len(vals) - 1; i >= down; i-- {
			if x, ok := l.Get(); !ok || x != vals[i] {
				t.Fatalf("Get of value %d = %p, %v: not last in, first out", i, x, ok)
			}
			if l.Len() != i {
				t.Fatalf("Len after popping value %d = %d", i, l.Len())
			}
		}
		vals = vals[:down]
	}
	drain(5) // back into the first segment
	if l.top != 0 || len(l.cur) != 5 {
		t.Fatalf("5 values left in segment %d at %d, want segment 0 at 5", l.top, len(l.cur))
	}
	for i, s := range l.segs {
		for j, x := range s {
			if x != nil && (i > 0 || j >= 5) {
				t.Fatalf("segment %d slot %d still references a popped value", i, j)
			}
		}
	}
	first := &l.segs[3][:1][0]
	for len(vals) < 100 {
		vals = append(vals, new(int))
		l.Put(vals[len(vals)-1])
	}
	if len(l.segs) != 4 || &l.segs[3][0] != first {
		t.Fatal("refilling to the old peak added or moved a segment")
	}
	drain(0)
	if x, ok := l.Get(); ok || x != nil {
		t.Fatalf("Get on the drained list = %v, %v", x, ok)
	}
}

// TestListAllocations: below a list's peak a Put/Get cycle allocates
// nothing, and growing to 20 000 values allocates no more often than
// the append growth series of a plain slice.
func TestListAllocations(t *testing.T) {
	flip(t, true)
	var l List[*int]
	x := new(int)
	for i := 0; i < 1000; i++ {
		l.Put(x)
	}
	for i := 0; i < 1000; i++ {
		l.Get()
	}
	if a := testing.AllocsPerRun(10, func() {
		for i := 0; i < 1000; i++ {
			l.Put(x)
		}
		for i := 0; i < 1000; i++ {
			l.Get()
		}
	}); a != 0 {
		t.Errorf("Put/Get cycles below the peak cost %.1f allocations, want 0", a)
	}
	const n = 20000
	list := testing.AllocsPerRun(5, func() {
		var l List[*int]
		for i := 0; i < n; i++ {
			l.Put(x)
		}
	})
	slice := testing.AllocsPerRun(5, func() {
		var s []*int
		for i := 0; i < n; i++ {
			s = append(s, x)
		}
	})
	t.Logf("%d values: %.0f allocations, an appended slice %.0f", n, list, slice)
	if list > slice {
		t.Errorf("growing to %d values cost %.0f allocations, an appended slice %.0f", n, list, slice)
	}
}

func TestListDisabled(t *testing.T) {
	flip(t, true)
	var l List[*int]
	l.Put(new(int))
	Enabled = false
	l.Put(new(int))
	if l.Len() != 1 {
		t.Fatalf("Put with pooling off kept the value: Len = %d", l.Len())
	}
	for i := 0; i < 3; i++ {
		if x, ok := l.Get(); ok || x != nil {
			t.Fatalf("Get with pooling off = %v, %v: must miss even on a stocked list", x, ok)
		}
	}
	if got, want := l.Stat(), (Stat{Miss: 3, Free: 1}); got != want {
		t.Fatalf("Stat = %+v, want %+v", got, want)
	}
}

// TestListOfSlices is surf's resPool: T is itself a slice, handed back
// with its length reset and its capacity kept.
func TestListOfSlices(t *testing.T) {
	flip(t, true)
	var l List[[]*int]
	s := make([]*int, 2, 8)
	l.Put(s[:0])
	got, ok := l.Get()
	if !ok || len(got) != 0 || cap(got) != 8 || &got[:1][0] != &s[0] {
		t.Fatalf("Get = len %d cap %d ok %v, want the same backing array, empty", len(got), cap(got), ok)
	}
	if l.segs[0][:1][0] != nil {
		t.Fatal("the popped slot still references the slice")
	}
	if _, ok := l.Get(); ok {
		t.Fatal("second Get hit on an empty list")
	}
}
