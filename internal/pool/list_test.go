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
	backing := l.Items() // aliases the slots Get vacates
	for i, want := range []*int{c, b} {
		if x, ok := l.Get(); !ok || x != want {
			t.Fatalf("Get %d = %p, %v: not last in, first out", i, x, ok)
		}
	}
	if backing[1] != nil || backing[2] != nil {
		t.Fatal("a popped slot still references its value: the list would pin what it handed out")
	}
	if got, want := l.Stat(), (Stat{Hit: 2, Miss: 1, Free: 1}); got != want {
		t.Fatalf("Stat = %+v, want %+v", got, want)
	}
	if it := l.Items(); len(it) != 1 || it[0] != a {
		t.Fatalf("Items = %v, want the one value left", it)
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
	backing := l.Items()
	got, ok := l.Get()
	if !ok || len(got) != 0 || cap(got) != 8 || &got[:1][0] != &s[0] {
		t.Fatalf("Get = len %d cap %d ok %v, want the same backing array, empty", len(got), cap(got), ok)
	}
	if backing[0] != nil {
		t.Fatal("the popped slot still references the slice")
	}
	if _, ok := l.Get(); ok {
		t.Fatal("second Get hit on an empty list")
	}
}
