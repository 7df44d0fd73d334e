package microfluidic

import (
	"testing"

	"medsen/internal/drbg"
)

// raceEnabled is set in race_test.go when the race detector is on.
var raceEnabled bool

// GenerateTransits feeds every acquisition on the local-diagnostic path;
// with the pre-sized transit slice, stack-buffered type order and
// slices.SortFunc it should allocate only the result and its particle
// stream (DESIGN.md §6).
func TestGenerateTransitsAllocBound(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates; the pin holds without -race")
	}
	rng := drbg.NewFromSeed(7)
	cfg := GenerateConfig{
		Channel: DefaultChannel(),
		Sample: NewSample(10, map[Type]float64{
			TypeBloodCell: 200,
			TypeBead358:   120,
		}),
		DurationS: 10,
		Loss:      DefaultLossModel(),
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := GenerateTransits(cfg, rng); err != nil {
			t.Fatal(err)
		}
	})
	// One allocation for the pre-sized result slice and one for the ChaCha8
	// particle stream, which moves to the heap behind rand.New's Source
	// interface.
	if allocs > 2 {
		t.Fatalf("GenerateTransits: %v allocs/run, want <= 2", allocs)
	}
}
