package ownership

import (
	"errors"
	"strconv"
	"testing"
)

// TestNumericOfCapsLongDigitStrings pins the maxIdentDigits fix:
// identifiers beyond 15 digits used to be parsed as a single float64 and
// silently lose precision (1e18-scale ULPs), skewing the committed mean.
// Now the first 15 digits are taken deterministically and exactly.
func TestNumericOfCapsLongDigitStrings(t *testing.T) {
	long := "12345678901234567890" // 20 digits
	want, err := strconv.ParseFloat(long[:maxIdentDigits], 64)
	if err != nil {
		t.Fatal(err)
	}
	got, err := IdentStatistic([]string{long})
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("IdentStatistic(%q) = %v, want first-15-digit value %v", long, got, want)
	}

	// Exactness: a tail change beyond the cap must not wiggle the value
	// (before the fix it produced a different, rounded float).
	got2, err := IdentStatistic([]string{"123456789012345" + "99999"})
	if err != nil {
		t.Fatal(err)
	}
	if got2 != want {
		t.Errorf("capped parse is not deterministic: %v vs %v", got2, want)
	}

	// Digits interleaved with separators cap the same way.
	got3, err := IdentStatistic([]string{"1234-5678-9012-3456-7890"})
	if err != nil {
		t.Fatal(err)
	}
	if got3 != want {
		t.Errorf("separator form = %v, want %v", got3, want)
	}

	// Only ASCII digits count, whatever surrounds them; and the
	// streaming planner's per-row StatAccum.Add allocates nothing.
	for _, tc := range []struct {
		s    string
		want float64
	}{{"٣4\xff5é6", 456}, {"ssn:000-00-0007", 7}} {
		if got, ok := numericOf(tc.s); !ok || got != tc.want {
			t.Errorf("numericOf(%q) = %v, %v; want %v", tc.s, got, ok, tc.want)
		}
	}
	var acc StatAccum
	if n := testing.AllocsPerRun(100, func() { acc.Add("1234-5678-9012-3456-7890") }); n != 0 {
		t.Errorf("StatAccum.Add: %v allocs per call, want 0", n)
	}
}

// TestIdentStatisticShortValuesUnchanged guards backward compatibility:
// identifiers within 15 digits (every SSN) keep their exact value.
func TestIdentStatisticShortValuesUnchanged(t *testing.T) {
	v, err := IdentStatistic([]string{"123-45-6789", "987-65-4321"})
	if err != nil {
		t.Fatal(err)
	}
	want := (123456789.0 + 987654321.0) / 2
	if v != want {
		t.Errorf("mean = %v, want %v", v, want)
	}
}

// TestIdentStatisticNumericFractionThreshold pins the subset-mean fix:
// a column where digits are the exception, not the rule, must refuse to
// commit a statistic instead of averaging whatever subset parsed.
func TestIdentStatisticNumericFractionThreshold(t *testing.T) {
	// 1 of 4 numeric (25% < 50%): refuse.
	_, err := IdentStatistic([]string{"alpha", "beta", "gamma", "123"})
	if !errors.Is(err, ErrNonNumericIdentifiers) {
		t.Errorf("25%% numeric: got %v, want ErrNonNumericIdentifiers", err)
	}

	// Nothing numeric: refuse.
	_, err = IdentStatistic([]string{"alpha", "beta"})
	if !errors.Is(err, ErrNonNumericIdentifiers) {
		t.Errorf("0%% numeric: got %v, want ErrNonNumericIdentifiers", err)
	}

	// Empty input: refuse (division by zero guard).
	if _, err := IdentStatistic(nil); err == nil {
		t.Error("empty input accepted")
	}

	// Exactly at the threshold (2 of 4 = 50%): accepted.
	v, err := IdentStatistic([]string{"10", "20", "x", "y"})
	if err != nil {
		t.Fatalf("50%% numeric rejected: %v", err)
	}
	if v != 15 {
		t.Errorf("mean = %v, want 15", v)
	}
}

// TestMarkFromStatisticSalted pins the multi-recipient mark derivation:
// distinct salts give distinct marks, the empty salt is the classic F,
// and quantization still absorbs sub-quantum drift per salt.
func TestMarkFromStatisticSalted(t *testing.T) {
	base, err := MarkFromStatistic(5e8, 1e6, 20)
	if err != nil {
		t.Fatal(err)
	}
	unsalted, err := MarkFromStatisticSalted(5e8, 1e6, 20, "")
	if err != nil {
		t.Fatal(err)
	}
	if !base.Equal(unsalted) {
		t.Error("empty salt must equal MarkFromStatistic")
	}
	a, err := MarkFromStatisticSalted(5e8, 1e6, 20, "hospital-a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := MarkFromStatisticSalted(5e8, 1e6, 20, "hospital-b")
	if err != nil {
		t.Fatal(err)
	}
	if a.Equal(b) || a.Equal(base) {
		t.Error("salted marks must be pairwise distinct")
	}
	aDrift, err := MarkFromStatisticSalted(5e8+1e5, 1e6, 20, "hospital-a")
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(aDrift) {
		t.Error("sub-quantum drift must keep the salted mark stable")
	}
}
