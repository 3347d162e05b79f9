package trace

import (
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func almostEq(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestEmptyTraceIsAlwaysOne(t *testing.T) {
	var tr *Trace
	for _, ts := range []float64{0, 1, 100, 1e9} {
		if got := tr.At(ts); got != 1 {
			t.Errorf("nil trace At(%g) = %g, want 1", ts, got)
		}
	}
	tr2 := MustNew("empty", nil, 0)
	if got := tr2.At(42); got != 1 {
		t.Errorf("empty trace At(42) = %g, want 1", got)
	}
}

func TestAtNonPeriodic(t *testing.T) {
	tr := MustNew("t", []Event{{0, 1}, {10, 0.5}, {20, 0.25}}, 0)
	cases := []struct{ ts, want float64 }{
		{0, 1}, {5, 1}, {9.999, 1},
		{10, 0.5}, {15, 0.5},
		{20, 0.25}, {1e6, 0.25},
	}
	for _, c := range cases {
		if got := tr.At(c.ts); !almostEq(got, c.want) {
			t.Errorf("At(%g) = %g, want %g", c.ts, got, c.want)
		}
	}
}

func TestAtBeforeFirstEventIsOne(t *testing.T) {
	tr := MustNew("t", []Event{{5, 0.3}}, 0)
	if got := tr.At(2); got != 1 {
		t.Errorf("At(2) = %g, want 1 before first event", got)
	}
}

func TestAtPeriodic(t *testing.T) {
	tr := MustNew("t", []Event{{0, 1}, {6, 0.5}}, 12)
	cases := []struct{ ts, want float64 }{
		{0, 1}, {5, 1}, {6, 0.5}, {11.9, 0.5},
		{12, 1}, {17, 1}, {18, 0.5}, {23.5, 0.5},
		{1200, 1}, {1206, 0.5},
	}
	for _, c := range cases {
		if got := tr.At(c.ts); !almostEq(got, c.want) {
			t.Errorf("At(%g) = %g, want %g", c.ts, got, c.want)
		}
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New("bad", []Event{{-1, 1}}, 0); err == nil {
		t.Error("negative timestamp accepted")
	}
	if _, err := New("bad", []Event{{0, 1}, {0, 0.5}}, 0); err == nil {
		t.Error("duplicate timestamps accepted")
	}
	if _, err := New("bad", []Event{{5, 1}, {3, 0.5}}, 0); err == nil {
		t.Error("decreasing timestamps accepted")
	}
	if _, err := New("bad", []Event{{5, 1}}, 3); err == nil {
		t.Error("period shorter than last event accepted")
	}
	if _, err := New("bad", nil, -1); err == nil {
		t.Error("negative period accepted")
	}
}

func TestParse(t *testing.T) {
	src := `
# availability of host A
PERIODICITY 24
0.0  1.0
8.0  0.5

12.0 0.75
`
	tr, err := ParseString("a", src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if got := tr.At(24 + 1); got != 1 {
		t.Errorf("At(25) = %g, want 1: PERIODICITY 24 not applied", got)
	}
	if tr.Len() != 3 {
		t.Fatalf("len = %d, want 3", tr.Len())
	}
	if got := tr.At(9); !almostEq(got, 0.5) {
		t.Errorf("At(9) = %g, want 0.5", got)
	}
	if got := tr.At(24 + 13); !almostEq(got, 0.75) {
		t.Errorf("At(37) = %g, want 0.75", got)
	}
}

func TestParseLoopAfterAlias(t *testing.T) {
	tr, err := ParseString("a", "LOOPAFTER 10\n0 1\n5 0\n")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if got := tr.At(12); got != 1 {
		t.Errorf("At(12) = %g, want 1: LOOPAFTER 10 not applied", got)
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		"PERIODICITY\n",
		"PERIODICITY a b\n",
		"0.0\n",
		"x 1.0\n",
		"0.0 y\n",
		"1 2 3\n",
	}
	for _, src := range bad {
		if _, err := ParseString("bad", src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

// TestParseRejectsNonFinite: NaN fails every sign and order comparison,
// so only an explicit finiteness check refuses these — otherwise a NaN
// value acts as a capacity, a NaN time as an event that never fires, a
// NaN period as a non-periodic trace.
func TestParseRejectsNonFinite(t *testing.T) {
	for _, src := range []string{
		"0.5 NaN\n",
		"NaN 0\n",
		"0.5 0\nNaN 1\n",
		"PERIODICITY NaN\n0 1\n",
		"0 +Inf\n",
		"Inf 1\n",
		"PERIODICITY Inf\n0 1\n",
	} {
		if _, err := ParseString("bad", src); !errors.Is(err, ErrBadTrace) {
			t.Errorf("Parse(%q): err %v, want ErrBadTrace", src, err)
		}
	}
}

// FuzzParse: any input is an error or a trace whose iterator yields
// finite values at finite, non-decreasing times.
func FuzzParse(f *testing.F) {
	for _, src := range []string{"PERIODICITY 24\n0 1\n8 0.5\n12 0.75\n", "0 1\n2 0\n", "LOOPAFTER 2\n0 1\n2 0\n"} {
		f.Add(src)
	}
	f.Fuzz(func(t *testing.T, src string) {
		tr, err := ParseString("fuzz", src)
		if err != nil {
			return
		}
		it, prev := tr.Iter(0), 0.0
		for i := 0; i < 2*tr.Len()+4; i++ {
			ts, v, ok := it.Next()
			if !ok {
				return
			}
			if !finite(ts) || !finite(v) || ts < prev {
				t.Fatalf("event %d (%g, %g) after time %g", i, ts, v, prev)
			}
			prev = ts
		}
	})
}

func TestIteratorNonPeriodic(t *testing.T) {
	tr := MustNew("t", []Event{{1, 0.9}, {2, 0.8}, {3, 0.7}}, 0)
	it := tr.Iter(0)
	var got []float64
	for {
		ts, _, ok := it.Next()
		if !ok {
			break
		}
		got = append(got, ts)
	}
	want := []float64{1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("got %v, want %v", got, want)
	}
	for i := range want {
		if !almostEq(got[i], want[i]) {
			t.Errorf("event %d at %g, want %g", i, got[i], want[i])
		}
	}
}

func TestIteratorFromSkipsPast(t *testing.T) {
	tr := MustNew("t", []Event{{1, 0.9}, {2, 0.8}, {3, 0.7}}, 0)
	it := tr.Iter(2.5)
	ts, v, ok := it.Next()
	if !ok || !almostEq(ts, 3) || !almostEq(v, 0.7) {
		t.Errorf("Next = (%g,%g,%v), want (3,0.7,true)", ts, v, ok)
	}
	if _, _, ok := it.Next(); ok {
		t.Error("iterator should be exhausted")
	}
}

func TestIteratorPeriodicUnrolls(t *testing.T) {
	tr := MustNew("t", []Event{{0, 1}, {4, 0.5}}, 8)
	it := tr.Iter(0)
	want := []float64{0, 4, 8, 12, 16, 20}
	for i, w := range want {
		ts, _, ok := it.Next()
		if !ok {
			t.Fatalf("event %d: iterator exhausted", i)
		}
		if !almostEq(ts, w) {
			t.Errorf("event %d at %g, want %g", i, ts, w)
		}
	}
}

func TestIteratorPeriodicFromMidCycle(t *testing.T) {
	tr := MustNew("t", []Event{{0, 1}, {4, 0.5}}, 8)
	it := tr.Iter(13)
	ts, v, ok := it.Next()
	if !ok || !almostEq(ts, 16) || v != 1 {
		t.Errorf("Next = (%g,%g,%v), want (16,1,true)", ts, v, ok)
	}
}

func TestIteratorPeek(t *testing.T) {
	tr := MustNew("t", []Event{{2, 0.5}}, 0)
	it := tr.Iter(0)
	ts1, v1, ok1 := it.Peek()
	ts2, v2, ok2 := it.Peek()
	if ts1 != ts2 || v1 != v2 || ok1 != ok2 {
		t.Error("Peek is not idempotent")
	}
	if !ok1 || ts1 != 2 || v1 != 0.5 {
		t.Errorf("Peek = (%g,%g,%v), want (2,0.5,true)", ts1, v1, ok1)
	}
}

func TestNewCopiesEvents(t *testing.T) {
	ev := []Event{{1, 0.5}}
	tr := MustNew("t", ev, 0)
	ev[0].Value = 99
	if tr.At(1) != 0.5 {
		t.Error("New kept the caller's slice")
	}
}

// Property: iterator events are non-decreasing in time and At(ts) at an
// event time equals the event value.
func TestIteratorMatchesAtProperty(t *testing.T) {
	f := func(rawTimes []uint16, rawVals []uint8, periodic bool) bool {
		n := len(rawTimes)
		if len(rawVals) < n {
			n = len(rawVals)
		}
		if n == 0 {
			return true
		}
		seen := map[float64]bool{}
		var events []Event
		for i := 0; i < n; i++ {
			ts := float64(rawTimes[i]%1000) / 4
			if seen[ts] {
				continue
			}
			seen[ts] = true
			events = append(events, Event{Time: ts, Value: float64(rawVals[i]%100) / 100})
		}
		if len(events) == 0 {
			return true
		}
		sortEvents(events)
		period := 0.0
		if periodic {
			period = events[len(events)-1].Time + 1
		}
		tr, err := New("p", events, period)
		if err != nil {
			return false
		}
		it := tr.Iter(0)
		prev := -1.0
		for i := 0; i < 50; i++ {
			ts, v, ok := it.Next()
			if !ok {
				return !periodic
			}
			if ts < prev {
				return false
			}
			prev = ts
			if !almostEq(tr.At(ts), v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func sortEvents(ev []Event) {
	for i := 1; i < len(ev); i++ {
		for j := i; j > 0 && ev[j].Time < ev[j-1].Time; j-- {
			ev[j], ev[j-1] = ev[j-1], ev[j]
		}
	}
}

func TestParseReaderError(t *testing.T) {
	// A line longer than the scanner default buffer should error, not hang.
	long := strings.Repeat("x", 1024*1024)
	if _, err := ParseString("big", long); err == nil {
		t.Skip("scanner accepted long line (buffer grew); acceptable")
	}
}
