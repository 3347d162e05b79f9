package pool

import (
	"math"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"
	"unsafe"
)

// rec is a pointer-holding value of an odd size (40 B), as the pooled
// kernel structs are.
type rec struct {
	id   int
	next *rec
	name string
	f    float64
}

func TestSlabValuesZeroed(t *testing.T) {
	var s Slab[rec]
	per := chunkLen[rec]()
	for i := 0; i < 3*per; i++ {
		r := s.New()
		if *r != (rec{}) {
			t.Fatalf("value %d came out as %+v, want zero", i, *r)
		}
		*r = rec{id: i + 1, next: r, name: "x", f: 1}
	}
	for i, v := range s.Make(3) {
		if v != (rec{}) {
			t.Fatalf("Make value %d came out as %+v, want zero", i, v)
		}
	}
}

func TestSlabPointersStable(t *testing.T) {
	var s Slab[rec]
	per := chunkLen[rec]()
	var got []*rec
	for i := 0; i < 3*per+1; i++ {
		r := s.New()
		r.id = i
		got = append(got, r)
	}
	runtime.GC()
	seen := make(map[*rec]bool, len(got))
	for i, r := range got {
		if seen[r] {
			t.Fatalf("value %d shares its address with an earlier one", i)
		}
		seen[r] = true
		if r.id != i {
			t.Fatalf("value %d reads id %d after later carves: it moved or was reused", i, r.id)
		}
	}
	// Consecutive carves from one chunk are adjacent; a chunk boundary
	// falls every per values.
	for i := 1; i < len(got); i++ {
		step := uintptr(unsafe.Pointer(got[i])) - uintptr(unsafe.Pointer(got[i-1]))
		if i%per != 0 && step != unsafe.Sizeof(rec{}) {
			t.Fatalf("values %d and %d are %d bytes apart inside one chunk", i-1, i, step)
		}
	}
}

// TestSlabMakeCapped: an append to a carved slice must reallocate, not
// write into the next carve.
func TestSlabMakeCapped(t *testing.T) {
	var s Slab[*rec]
	a := s.Make(2)
	b := s.Make(2)
	if cap(a) != 2 || len(a) != 2 {
		t.Fatalf("Make(2) = len %d cap %d, want 2, 2", len(a), cap(a))
	}
	a = append(a, &rec{id: 1})
	if b[0] != nil || &a[0] == &b[0] {
		t.Fatal("an append to one carve wrote into the next")
	}
	big := s.Make(chunkLen[*rec]() + 1)
	if len(big) != chunkLen[*rec]()+1 {
		t.Fatalf("oversized Make returned %d values", len(big))
	}
}

// chunkCost carves one value from a fresh slab (the chunk's allocation)
// and reports the objects and bytes the heap charged for it: the least
// of five tries, since the counters are process-wide and the test
// framework's own goroutines may allocate in between.
func chunkCost[E any]() (objects, bytes uint64) {
	objects, bytes = math.MaxUint64, math.MaxUint64
	for i := 0; i < 5; i++ {
		var s Slab[E]
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		s.New()
		runtime.ReadMemStats(&m1)
		objects = min(objects, m1.Mallocs-m0.Mallocs)
		bytes = min(bytes, m1.TotalAlloc-m0.TotalAlloc)
	}
	return objects, bytes
}

func TestSlabChunkBudget(t *testing.T) {
	type big struct{ b [5000]byte }
	type huge struct{ b [9000]byte }
	cases := []struct {
		name    string
		size    uintptr
		per     int
		measure func() (uint64, uint64)
		budget  uint64
	}{
		{"8B", 8, chunkLen[*rec](), chunkCost[*rec], 8 << 10},
		{"40B", unsafe.Sizeof(rec{}), chunkLen[rec](), chunkCost[rec], 8 << 10},
		{"112B", 112, chunkLen[[14]int](), chunkCost[[14]int], 8 << 10},
		// One value per chunk when a value is past half the budget.
		{"5000B", 5000, chunkLen[big](), chunkCost[big], 5376},
		{"9000B", 9000, chunkLen[huge](), chunkCost[huge], 9472},
	}
	for _, c := range cases {
		used := uintptr(c.per) * c.size
		if c.size <= chunkBytes && (used > chunkBytes || used+c.size <= chunkBytes) {
			t.Errorf("%s: %d values (%d B) do not fill a %d B chunk", c.name, c.per, used, chunkBytes)
		}
		objects, bytes := c.measure()
		if objects != 1 || bytes > c.budget {
			t.Errorf("%s: a chunk cost %d objects and %d bytes, want 1 object within %d bytes", c.name, objects, bytes, c.budget)
		}
	}
	var s Slab[rec]
	per := chunkLen[rec]()
	if a := testing.AllocsPerRun(10, func() {
		for i := 0; i < per; i++ {
			s.New()
		}
	}); a != 1 {
		t.Errorf("a chunk's worth of values cost %.1f allocations, want 1", a)
	}
}

// TestSlabIgnoresEnabled: the slab is the miss path, not a free list, so
// it carves the same way with pooling on and off: the same allocations,
// and new chunks at the same carves.
func TestSlabIgnoresEnabled(t *testing.T) {
	carve := func() (allocs uint64, starts []int) {
		var s Slab[rec]
		starts = make([]int, 0, 8)
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		var prev *rec
		for i := 0; i < 2*chunkLen[rec]()+1; i++ {
			r := s.New()
			if prev == nil || uintptr(unsafe.Pointer(r))-uintptr(unsafe.Pointer(prev)) != unsafe.Sizeof(rec{}) {
				starts = append(starts, i)
			}
			prev = r
		}
		runtime.ReadMemStats(&m1)
		return m1.Mallocs - m0.Mallocs, starts
	}
	least := func() (allocs uint64, starts []int) { // the counters are process-wide
		allocs = math.MaxUint64
		for i := 0; i < 3; i++ {
			a, st := carve()
			allocs, starts = min(allocs, a), st
		}
		return allocs, starts
	}
	flip(t, true)
	onAllocs, onStarts := least()
	Enabled = false
	offAllocs, offStarts := least()
	if onAllocs != 3 || offAllocs != onAllocs {
		t.Errorf("two chunks and one value cost %d allocations with pooling on, %d with it off, want 3", onAllocs, offAllocs)
	}
	if !slices.Equal(onStarts, offStarts) {
		t.Errorf("chunks start at carves %v with pooling on, %v with it off", onStarts, offStarts)
	}
}

// TestJoin: joined strings read their parts, later joins (across a
// chunk boundary too) leave earlier strings alone, and joining into a
// warm chunk allocates nothing.
func TestJoin(t *testing.T) {
	var s Slab[byte]
	if got := Join(&s, "", ""); got != "" {
		t.Fatalf("empty Join = %q", got)
	}
	var got, want []string
	for i := 0; len(want) == 0 || len(s.free) > 100; i++ {
		n := strconv.Itoa(i)
		got = append(got, Join(&s, "comm h", n, "->h", n))
		want = append(want, "comm h"+n+"->h"+n)
	}
	got = append(got, Join(&s, strings.Repeat("x", 200)), Join(&s, strings.Repeat("y", 2*chunkBytes)))
	want = append(want, strings.Repeat("x", 200), strings.Repeat("y", 2*chunkBytes))
	if !slices.Equal(got, want) {
		t.Fatal("a joined string changed after later joins")
	}
	s = Slab[byte]{}
	Join(&s, "warm")
	if a := testing.AllocsPerRun(20, func() { Join(&s, "comm ", "src", "->", "dst") }); a != 0 {
		t.Errorf("Join into a warm chunk: %v allocs, want 0", a)
	}
}
