package main

import (
	"bytes"
	"math"
	"strings"
	"testing"
)

// TestCommRowMatchesModels pins the comm figure's n=2^12, m=50 row against
// internal/analysis: the measured CBS upload sits within 2% of the
// multiproof model and below the paper's m·log n bound, so neither the wire
// format nor the model can drift without the other.
func TestCommRowMatchesModels(t *testing.T) {
	row, err := measureCommRow(1 << 12)
	if err != nil {
		t.Fatalf("measureCommRow: %v", err)
	}
	for name, measured := range map[string]float64{"cbs": row.cbs, "ni-cbs": row.nicbs} {
		if math.Abs(measured-row.multiproofModel) > 0.02*row.multiproofModel {
			t.Errorf("%s upload %.0f B, multiproof model %.0f B: more than 2%% apart", name, measured, row.multiproofModel)
		}
		if measured >= float64(row.paperModel) {
			t.Errorf("%s upload %.0f B is not below the paper's bound of %d B", name, measured, row.paperModel)
		}
	}
	if row.naive < 8*int64(row.n) {
		t.Errorf("naive upload %d B is less than the %d results it carries", row.naive, row.n)
	}
}

// TestFig1PrintsTheAuditPath: for one sample the response's multiproof is
// the audit path, and the figure shows its H = 4 siblings, the accepted
// reconstruction and the refused forgery.
func TestFig1PrintsTheAuditPath(t *testing.T) {
	var out bytes.Buffer
	if err := runFig1(&out); err != nil {
		t.Fatalf("runFig1: %v", err)
	}
	for _, want := range []string{"sibling 1 Φ(L4)", "sibling 4 Φ(F)", "Φ(R') = Φ(R) ✓", "forged f(x3) rejected"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("fig1 output lacks %q:\n%s", want, out.String())
		}
	}
	if strings.Contains(out.String(), "sibling 5") {
		t.Errorf("fig1 prints more than H = 4 siblings:\n%s", out.String())
	}
}
