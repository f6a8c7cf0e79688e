package traffic

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"
)

// FuzzReadArrivalsCSV feeds arbitrary bytes to the replay-CSV parser: it
// must reject or accept, never panic, and what it accepts must be a
// replayable recording: a non-empty list of non-negative, non-decreasing
// arrivals that WriteArrivalsCSV writes back to the same list and whose
// replay passes Validate.
func FuzzReadArrivalsCSV(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteArrivalsCSV(&buf, []time.Duration{0, 5, 5, 2 * time.Second}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	for _, in := range malformedArrivals {
		f.Add(in)
	}

	f.Fuzz(func(t *testing.T, data string) {
		arrivals, err := ReadArrivalsCSV(strings.NewReader(data))
		if err != nil {
			return
		}
		if len(arrivals) == 0 {
			t.Fatal("accepted a file with no arrivals")
		}
		for i, at := range arrivals {
			if at < 0 {
				t.Fatalf("accepted a negative arrival %v at request %d", at, i)
			}
			if i > 0 && at < arrivals[i-1] {
				t.Fatalf("accepted arrival %v at request %d after %v", at, i, arrivals[i-1])
			}
		}
		var out bytes.Buffer
		if err := WriteArrivalsCSV(&out, arrivals); err != nil {
			t.Fatalf("accepted arrivals failed to write: %v", err)
		}
		back, err := ReadArrivalsCSV(&out)
		if err != nil {
			t.Fatalf("written arrivals failed to read: %v", err)
		}
		if !reflect.DeepEqual(back, arrivals) {
			t.Fatalf("round trip changed the arrivals: %v vs %v", arrivals, back)
		}
		if err := NewReplay("fuzz", arrivals).Validate(); err != nil {
			t.Fatalf("replay of accepted arrivals: %v", err)
		}
	})
}
