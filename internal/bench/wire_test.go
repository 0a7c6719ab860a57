package bench

import "testing"

// TestWireEpochRoundOneCallPerEpoch pins the epoch-round protocol's cost
// with host-independent numbers: an epoch is exactly one wire call
// whatever the group count, and a fixed run's bytes per epoch are
// identical run over run (the encoding is canonical and the readings
// deterministic).
func TestWireEpochRoundOneCallPerEpoch(t *testing.T) {
	const epochs = 6
	for _, groups := range []int{1, WireRTTGroups} {
		_, calls, bytes, err := MeasureWireEpochRound(0, groups, epochs)
		if err != nil {
			t.Fatal(err)
		}
		if calls != 1 {
			t.Errorf("G=%d: %v wire calls per epoch, want 1", groups, calls)
		}
		_, _, again, err := MeasureWireEpochRound(0, groups, epochs)
		if err != nil {
			t.Fatal(err)
		}
		if bytes <= 0 || bytes != again {
			t.Errorf("G=%d: bytes per epoch %v then %v, want equal and positive", groups, bytes, again)
		}
		t.Logf("G=%d: %v call, %.1f bytes per epoch", groups, calls, bytes)
	}
}
