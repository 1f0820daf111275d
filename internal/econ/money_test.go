package econ

import (
	"math"
	"testing"
	"testing/quick"
)

func TestFromDollars(t *testing.T) {
	cases := []struct {
		in   float64
		want Money
	}{
		{0, 0},
		{1, Dollar},
		{2.31, 2_310_000},
		{0.03, 30_000},
		{-1.5, -1_500_000},
		{0.0000015, 2}, // rounds to nearest micro
		{-0.0000015, -2},
	}
	for _, c := range cases {
		if got := FromDollars(c.in); got != c.want {
			t.Errorf("FromDollars(%v) = %d, want %d", c.in, got, c.want)
		}
	}
}

func TestFromCents(t *testing.T) {
	if got := FromCents(231); got != FromDollars(2.31) {
		t.Errorf("FromCents(231) = %v, want %v", got, FromDollars(2.31))
	}
	if got := FromCents(-7); got != FromDollars(-0.07) {
		t.Errorf("FromCents(-7) = %v, want %v", got, FromDollars(-0.07))
	}
}

func TestDivCeilExamples(t *testing.T) {
	cases := []struct {
		m    Money
		n    int
		want Money
	}{
		{100 * Dollar, 4, 25 * Dollar},  // paper Example 3 share
		{100 * Dollar, 1, 100 * Dollar}, // sole user pays everything
		{100 * Dollar, 2, 50 * Dollar},
		{101 * Dollar, 100, FromDollars(1.01)},
		{101 * Dollar, 101, 1 * Dollar},
		{1, 3, 1}, // 1 micro split 3 ways still charges 1 micro
		{0, 5, 0},
	}
	for _, c := range cases {
		if got := c.m.DivCeil(c.n); got != c.want {
			t.Errorf("(%v).DivCeil(%d) = %v, want %v", c.m, c.n, got, c.want)
		}
	}
}

func TestDivCeilPanics(t *testing.T) {
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("zero population", func() { Money(10).DivCeil(0) })
	mustPanic("negative population", func() { Money(10).DivCeil(-1) })
	mustPanic("negative amount", func() { Money(-10).DivCeil(2) })
}

// Property: DivCeil recovers the cost — n users paying the share always
// cover m, and never over-cover by n or more micro-dollars.
func TestDivCeilRecoversCost(t *testing.T) {
	f := func(raw int64, nRaw uint8) bool {
		m := Money(raw)
		if m < 0 {
			m = -m
		}
		m %= 1_000_000 * Dollar
		n := int(nRaw%64) + 1
		share := m.DivCeil(n)
		total := share.MulInt(int64(n))
		return total >= m && total-m < Money(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: DivCeil is monotone in the amount and antitone in population.
func TestDivCeilMonotone(t *testing.T) {
	f := func(aRaw, bRaw int64, nRaw uint8) bool {
		a, b := Money(aRaw), Money(bRaw)
		if a < 0 {
			a = -a
		}
		if b < 0 {
			b = -b
		}
		a %= 1_000 * Dollar
		b %= 1_000 * Dollar
		if a > b {
			a, b = b, a
		}
		n := int(nRaw%32) + 1
		if a.DivCeil(n) > b.DivCeil(n) {
			return false
		}
		// More users never increases the per-user share.
		return b.DivCeil(n+1) <= b.DivCeil(n)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDivFloor(t *testing.T) {
	cases := []struct {
		m    Money
		n    int
		want Money
	}{
		{10, 3, 3},
		{-10, 3, -4},
		{9, 3, 3},
		{-9, 3, -3},
		{0, 7, 0},
	}
	for _, c := range cases {
		if got := c.m.DivFloor(c.n); got != c.want {
			t.Errorf("(%d).DivFloor(%d) = %d, want %d", int64(c.m), c.n, int64(got), int64(c.want))
		}
	}
}

func TestCheckedAdd(t *testing.T) {
	if _, err := MaxMoney.CheckedAdd(1); err == nil {
		t.Error("MaxMoney + 1 should overflow")
	}
	if _, err := Money(math.MinInt64).CheckedAdd(-1); err == nil {
		t.Error("MinMoney - 1 should overflow")
	}
	got, err := Money(2).CheckedAdd(3)
	if err != nil || got != 5 {
		t.Errorf("2+3 = %v, %v; want 5, nil", got, err)
	}
}

func TestSum(t *testing.T) {
	got, err := Sum([]Money{Dollar, 2 * Dollar, -Cent})
	if err != nil {
		t.Fatal(err)
	}
	if want := FromDollars(2.99); got != want {
		t.Errorf("Sum = %v, want %v", got, want)
	}
	if _, err := Sum([]Money{MaxMoney, MaxMoney}); err == nil {
		t.Error("Sum of two MaxMoney should overflow")
	}
	if got, err := Sum(nil); err != nil || got != 0 {
		t.Errorf("Sum(nil) = %v, %v; want 0, nil", got, err)
	}
}

func TestMinMax(t *testing.T) {
	if Min(1, 2) != 1 || Min(2, 1) != 1 {
		t.Error("Min broken")
	}
	if Max(1, 2) != 2 || Max(2, 1) != 2 {
		t.Error("Max broken")
	}
}

func TestStringFormatting(t *testing.T) {
	cases := []struct {
		m    Money
		want string
	}{
		{0, "$0.00"},
		{Dollar, "$1.00"},
		{FromDollars(2.31), "$2.31"},
		{FromDollars(0.03), "$0.03"},
		{FromDollars(-1.5), "-$1.50"},
		{Micro, "$0.000001"},
		{FromDollars(12.345678), "$12.345678"},
		// The magnitude of math.MinInt64 is not an int64.
		{math.MinInt64, "-$9223372036854.775808"},
		{math.MinInt64 + 1, "-$9223372036854.775807"},
		{math.MaxInt64, "$9223372036854.775807"},
	}
	for _, c := range cases {
		if got := c.m.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.m), got, c.want)
		}
	}
}

func TestParseMoney(t *testing.T) {
	cases := []struct {
		in   string
		want Money
	}{
		{"2.31", FromDollars(2.31)},
		{"$0.03", FromDollars(0.03)},
		{"-$1.5", FromDollars(-1.5)},
		{"+12", 12 * Dollar},
		{"0.000001", Micro},
		{".5", FromDollars(0.5)},
	}
	for _, c := range cases {
		got, err := ParseMoney(c.in)
		if err != nil {
			t.Errorf("ParseMoney(%q): %v", c.in, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseMoney(%q) = %v, want %v", c.in, got, c.want)
		}
	}
	bad := []string{"", "$", "1.2345678", "abc", "1.2.3", "1.", "--1"}
	for _, in := range bad {
		if _, err := ParseMoney(in); err == nil {
			t.Errorf("ParseMoney(%q): expected error", in)
		}
	}
}

// Property: String/ParseMoney round-trip for in-range amounts.
func TestMoneyRoundTrip(t *testing.T) {
	f := func(raw int64) bool {
		m := Money(raw % (1_000_000_000 * int64(Dollar)))
		parsed, err := ParseMoney(m.String())
		return err == nil && parsed == m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestMustParseMoneyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParseMoney on garbage should panic")
		}
	}()
	MustParseMoney("not money")
}

func TestDollarsDisplay(t *testing.T) {
	if got := FromDollars(2.31).Dollars(); math.Abs(got-2.31) > 1e-9 {
		t.Errorf("Dollars() = %v, want 2.31", got)
	}
	if !FromDollars(-1).IsNegative() || FromDollars(1).IsNegative() {
		t.Error("IsNegative broken")
	}
}

// Quantum-boundary behavior: a cost one micro-dollar either side of an
// exact multiple must round the way the recovery guarantee needs.
func TestDivCeilQuantumBoundaries(t *testing.T) {
	cases := []struct {
		m    Money
		n    int
		want Money
	}{
		{9, 3, 3},        // exact multiple: no rounding
		{10, 3, 4},       // one micro over: round up
		{8, 3, 3},        // one micro under: still covers
		{Micro, 1000, 1}, // smallest amount, many shares: never zero
		{0, 5, 0},        // zero cost shares to zero
		{Dollar + 1, 2, Dollar/2 + 1},
		{Dollar - 1, 2, Dollar / 2},
	}
	for _, c := range cases {
		if got := c.m.DivCeil(c.n); got != c.want {
			t.Errorf("%v.DivCeil(%d) = %v, want %v", c.m, c.n, got, c.want)
		}
		// The recovery inequality itself, at the boundary.
		if got := c.m.DivCeil(c.n).MulInt(int64(c.n)); got < c.m {
			t.Errorf("%v.DivCeil(%d) shares under-recover: %v", c.m, c.n, got)
		}
	}
}

func TestDivFloorQuantumBoundaries(t *testing.T) {
	cases := []struct {
		m    Money
		n    int
		want Money
	}{
		{9, 3, 3},
		{10, 3, 3},
		{8, 3, 2},
		{Micro, 1000, 0}, // floor can vanish where ceil cannot
		{Dollar + 1, 2, Dollar / 2},
	}
	for _, c := range cases {
		if got := c.m.DivFloor(c.n); got != c.want {
			t.Errorf("%v.DivFloor(%d) = %v, want %v", c.m, c.n, got, c.want)
		}
	}
}

// FromDollars at the half-micro boundary rounds half away from zero in
// both directions.
func TestFromDollarsHalfMicroBoundary(t *testing.T) {
	cases := []struct {
		d    float64
		want Money
	}{
		{0.0000005, 1},
		{-0.0000005, -1},
		{0.0000004, 0},
		{-0.0000004, 0},
		{0.0000015, 2},
		{-0.0000015, -2},
	}
	for _, c := range cases {
		if got := FromDollars(c.d); got != c.want {
			t.Errorf("FromDollars(%v) = %d, want %d", c.d, got, c.want)
		}
	}
}

// Negative amounts — deficits and negative surpluses in reports — format
// with a single leading sign and correct sub-dollar padding.
func TestNegativeSurplusFormatting(t *testing.T) {
	cases := []struct {
		m    Money
		want string
	}{
		{-1, "-$0.000001"},
		{-Cent, "-$0.01"},
		{-Dollar, "-$1.00"},
		{-Dollar - Cent, "-$1.01"},
		{-Dollar - 1, "-$1.000001"},
		{-1330436, "-$1.330436"},
		{-Dollar * 1000, "-$1000.00"},
	}
	for _, c := range cases {
		if got := c.m.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", c.m, got, c.want)
		}
		back, err := ParseMoney(c.want)
		if err != nil {
			t.Errorf("ParseMoney(%q): %v", c.want, err)
		} else if back != c.m {
			t.Errorf("ParseMoney(%q) = %d, want %d", c.want, back, c.m)
		}
	}
}
