// Package econ provides exact money arithmetic and the cloud price book
// used throughout the shared-optimization pricing mechanisms.
//
// All monetary quantities — optimization costs, user values, bids, and
// payments — are represented as Money, an int64 count of micro-dollars
// (1e-6 USD). Integer representation makes the cost-recovery guarantee of
// the mechanisms exact: there is no floating-point rounding that could let
// the sum of computed cost-shares drift below the optimization cost.
package econ

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
)

// Money is an amount of United States dollars in integer micro-dollars.
// One dollar is 1_000_000 Money. Money is a value type: all arithmetic
// returns new values and never mutates.
//
// The zero value is $0.
type Money int64

// Common denominations.
const (
	// Micro is the smallest representable amount, 1e-6 dollars.
	Micro Money = 1
	// Cent is one hundredth of a dollar.
	Cent Money = 10_000
	// Dollar is one dollar.
	Dollar Money = 1_000_000
)

// MaxMoney is the largest representable amount. It is never a meaningful
// price; mechanisms use explicit "forced" sets rather than sentinel bids,
// but MaxMoney bounds intermediate sums in overflow checks.
const MaxMoney Money = 1<<63 - 1

// ErrMoneyOverflow is reported by checked arithmetic when a result would
// not fit in an int64 number of micro-dollars.
var ErrMoneyOverflow = errors.New("econ: money overflow")

// FromDollars converts a float dollar amount to Money, rounding half away
// from zero to the nearest micro-dollar. It is intended for configuration
// and test inputs; internal computations never round.
func FromDollars(d float64) Money {
	if d >= 0 {
		return Money(d*float64(Dollar) + 0.5)
	}
	return Money(d*float64(Dollar) - 0.5)
}

// FromCents converts an integer number of cents to Money.
func FromCents(c int64) Money { return Money(c) * Cent }

// Dollars reports m as a float64 dollar amount. Use only for display and
// plotting; mechanism logic must stay in integer Money.
func (m Money) Dollars() float64 { return float64(m) / float64(Dollar) }

// IsNegative reports whether m is strictly less than zero.
func (m Money) IsNegative() bool { return m < 0 }

// Add returns m + n.
func (m Money) Add(n Money) Money { return m + n }

// Sub returns m - n.
func (m Money) Sub(n Money) Money { return m - n }

// MulInt returns m scaled by an integer factor k.
func (m Money) MulInt(k int64) Money { return m * Money(k) }

// DivCeil returns the smallest Money p such that p*n >= m, for n > 0 and
// m >= 0. It is the per-user cost-share of splitting cost m across n users:
// ceiling division guarantees that n users each paying DivCeil(m, n) always
// cover m exactly or over-cover it by at most n-1 micro-dollars, preserving
// cost recovery without floating-point error.
//
// DivCeil panics if n <= 0 or m < 0; both indicate a programming error in
// the caller (costs and populations are validated at the API boundary).
func (m Money) DivCeil(n int) Money {
	if n <= 0 {
		panic(fmt.Sprintf("econ: DivCeil by non-positive population %d", n))
	}
	if m < 0 {
		panic(fmt.Sprintf("econ: DivCeil of negative amount %d", int64(m)))
	}
	return (m + Money(n) - 1) / Money(n)
}

// DivFloor returns m/n rounded toward negative infinity, for n > 0.
func (m Money) DivFloor(n int) Money {
	if n <= 0 {
		panic(fmt.Sprintf("econ: DivFloor by non-positive population %d", n))
	}
	q := m / Money(n)
	if m%Money(n) != 0 && m < 0 {
		q--
	}
	return q
}

// CheckedAdd returns m + n, or ErrMoneyOverflow if the sum does not fit.
func (m Money) CheckedAdd(n Money) (Money, error) {
	s := m + n
	if (n > 0 && s < m) || (n < 0 && s > m) {
		return 0, ErrMoneyOverflow
	}
	return s, nil
}

// Sum adds a slice of amounts with overflow checking. It returns
// ErrMoneyOverflow if any partial sum overflows.
func Sum(amounts []Money) (Money, error) {
	var total Money
	for _, a := range amounts {
		t, err := total.CheckedAdd(a)
		if err != nil {
			return 0, err
		}
		total = t
	}
	return total, nil
}

// Min returns the smaller of a and b.
func Min(a, b Money) Money {
	if a < b {
		return a
	}
	return b
}

// Max returns the larger of a and b.
func Max(a, b Money) Money {
	if a > b {
		return a
	}
	return b
}

// String formats m as a dollar amount with up to six decimal places,
// trimming trailing zeros but always keeping at least two decimals:
// $1.50, $0.03, -$2.310000 renders as -$2.31, $0.000001 stays six places.
func (m Money) String() string {
	neg := m < 0
	// The magnitude as a uint64, where -MinInt64 fits.
	v := uint64(m)
	if neg {
		v = -v
	}
	whole := v / uint64(Dollar)
	frac := v % uint64(Dollar)
	fs := fmt.Sprintf("%06d", frac)
	// Trim trailing zeros but keep at least two fractional digits.
	for len(fs) > 2 && fs[len(fs)-1] == '0' {
		fs = fs[:len(fs)-1]
	}
	sign := ""
	if neg {
		sign = "-"
	}
	return fmt.Sprintf("%s$%d.%s", sign, whole, fs)
}

// ParseMoney parses a dollar string produced by String or written by hand:
// an optional sign, optional leading "$", digits, and an optional fraction
// of at most six digits. Examples: "2.31", "$0.03", "-$1.5", "+12".
func ParseMoney(s string) (Money, error) {
	orig := s
	neg := false
	switch {
	case strings.HasPrefix(s, "-"):
		neg = true
		s = s[1:]
	case strings.HasPrefix(s, "+"):
		s = s[1:]
	}
	s = strings.TrimPrefix(s, "$")
	if s == "" {
		return 0, fmt.Errorf("econ: parse money %q: empty amount", orig)
	}
	if strings.ContainsAny(s, "+-") {
		return 0, fmt.Errorf("econ: parse money %q: misplaced sign", orig)
	}
	wholeStr, fracStr, hasFrac := strings.Cut(s, ".")
	if wholeStr == "" {
		wholeStr = "0"
	}
	whole, err := strconv.ParseInt(wholeStr, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("econ: parse money %q: %v", orig, err)
	}
	var frac int64
	if hasFrac {
		if fracStr == "" || len(fracStr) > 6 {
			return 0, fmt.Errorf("econ: parse money %q: fraction must have 1..6 digits", orig)
		}
		f, err := strconv.ParseInt(fracStr, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("econ: parse money %q: %v", orig, err)
		}
		for i := len(fracStr); i < 6; i++ {
			f *= 10
		}
		frac = f
	}
	if whole > int64(MaxMoney/Dollar)-1 {
		return 0, fmt.Errorf("econ: parse money %q: %w", orig, ErrMoneyOverflow)
	}
	v := Money(whole)*Dollar + Money(frac)
	if neg {
		v = -v
	}
	return v, nil
}

// MustParseMoney is ParseMoney that panics on error; for tests and
// compile-time-constant-like configuration.
func MustParseMoney(s string) Money {
	m, err := ParseMoney(s)
	if err != nil {
		panic(err)
	}
	return m
}
