package experiments

import (
	"reflect"
	"testing"
)

func runRel(t *testing.T) *relResult {
	t.Helper()
	opts := DefaultOptions()
	opts.Quick = true
	res, err := runReliability(opts)
	if err != nil {
		t.Fatal(err)
	}
	return res.(*relResult)
}

// TestReliabilityAcceptance pins the experiment's headline claims: at a
// fault intensity where the raw channel's BER is past 5% the transport
// still delivers ≥99% of the payload, and at full intensity it degrades
// the bit rate instead of erroring.
func TestReliabilityAcceptance(t *testing.T) {
	res := runRel(t)
	if len(res.Rows) < 3 {
		t.Fatalf("only %d rows", len(res.Rows))
	}
	clean := res.Rows[0]
	if clean.Intensity != 0 || clean.RawBER != 0 || clean.Delivery != 1 {
		t.Errorf("clean row not clean: %+v", clean)
	}
	found := false
	for _, row := range res.Rows {
		if row.RawBER > 0.05 && row.Delivery >= 0.99 && row.ResidualBER == 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("no intensity with raw BER > 5%% and ≥99%% delivery:\n%+v", res.Rows)
	}
	last := res.Rows[len(res.Rows)-1]
	if last.Intensity != 1 {
		t.Fatalf("last row at intensity %v", last.Intensity)
	}
	if last.Note != "" {
		t.Errorf("full intensity errored instead of degrading: %s", last.Note)
	}
	if last.Delivery < 0.99 {
		t.Errorf("full intensity delivered %.0f%%", last.Delivery*100)
	}
	if last.Degrade == 0 && last.Retrans == 0 {
		t.Error("full intensity cost neither retransmissions nor rate")
	}
	if last.RawBER <= clean.RawBER {
		t.Error("raw BER did not rise with intensity")
	}
	if last.Interval < res.BaseInterval {
		t.Errorf("final interval %v below base %v", last.Interval, res.BaseInterval)
	}
}

// TestReliabilityReproducible: the sweep is deterministic in the seed —
// the property every recorded EXPERIMENTS.md number relies on. It
// compares the whole result struct at full float precision; the report
// TestAllExperimentsRender pins prints each rate to 1–4 decimals.
func TestReliabilityReproducible(t *testing.T) {
	a, b := runRel(t), runRel(t)
	if !reflect.DeepEqual(a, b) {
		t.Errorf("same seed, different sweeps:\n%+v\n%+v", a, b)
	}
}
