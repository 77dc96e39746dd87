package main

import (
	"bufio"
	"bytes"
	"fmt"
	"math"
	"regexp"
	"strings"
	"testing"

	"uncheatgrid/internal/analysis"
	"uncheatgrid/internal/workload"
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

// TestCommExtrapolationRows pins the analytic rows of the comm figure: 2^62
// inputs of 8 bytes are 2^65 B, which does not fit an int64 and used to
// print as 0.
func TestCommExtrapolationRows(t *testing.T) {
	var out bytes.Buffer
	writeCommExtrapolation(&out)
	for _, want := range []string{
		"2^40        8796093022208            64432",
		"2^62 36893488147419103232            99632",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("comm extrapolation lacks %q:\n%s", want, out.String())
		}
	}
}

// TestSchemesRowsShape pins the schemes table's claims: every scheme
// detects the r = 0.5 cheaters, and CBS and NI-CBS move fewer supervisor
// bytes than the two full-upload schemes.
func TestSchemesRowsShape(t *testing.T) {
	rows, err := measureSchemes()
	if err != nil {
		t.Fatalf("measureSchemes: %v", err)
	}
	bytesOf := make(map[string]int64, len(rows))
	for _, row := range rows {
		if row.total != 4 || row.caught != row.total {
			t.Errorf("%s caught %d of %d cheaters", row.scheme, row.caught, row.total)
		}
		bytesOf[row.scheme] = row.supervisorBytes
	}
	for _, light := range []string{"cbs", "ni-cbs"} {
		for _, heavy := range []string{"naive", "double-check"} {
			if bytesOf[light] <= 0 || bytesOf[light] >= bytesOf[heavy] {
				t.Errorf("%s moved %d supervisor bytes, %s %d: want fewer", light, bytesOf[light], heavy, bytesOf[heavy])
			}
		}
	}
}

// TestEq2RowsInsideBinomialBand pins the detection guarantee as the figure
// prints it: each of eq2's seven rows is 400 live CBS exchanges against a
// semi-honest cheater, so its measured survival rate is a binomial sample of
// Eq. 2's (r + (1-r)q)^m and must sit within four standard deviations,
// √(p(1−p)/400), of it. The seeds are fixed, so this cannot flake; it fails
// when sampling, the cheater or the verifier stops matching the theorem.
func TestEq2RowsInsideBinomialBand(t *testing.T) {
	const rounds = 400
	var out bytes.Buffer
	if err := runEq2(&out); err != nil {
		t.Fatalf("runEq2: %v", err)
	}
	rows := 0
	sc := bufio.NewScanner(bytes.NewReader(out.Bytes()))
	for sc.Scan() {
		var r, q, printed, measured float64
		var m int
		if n, _ := fmt.Sscanf(sc.Text(), "%f %f %d %f %f", &r, &q, &m, &printed, &measured); n != 5 {
			continue // title and header lines
		}
		rows++
		p, err := analysis.CheatSuccessProb(r, q, m)
		if err != nil {
			t.Fatalf("CheatSuccessProb(%v, %v, %d): %v", r, q, m, err)
		}
		if math.Abs(printed-p) > 1e-5 {
			t.Errorf("r=%.2f q=%.2f m=%d: analytic column prints %.5f, Eq. 2 gives %.5f", r, q, m, printed, p)
		}
		sigma := math.Sqrt(p * (1 - p) / rounds)
		if math.Abs(measured-p) > 4*sigma {
			t.Errorf("r=%.2f q=%.2f m=%d: measured survival %.5f is %.1f standard deviations from Eq. 2's %.5f",
				r, q, m, measured, math.Abs(measured-p)/sigma, p)
		}
	}
	if rows != 7 {
		t.Errorf("parsed %d rows of eq2, want 7:\n%s", rows, out.String())
	}
}

// eq5Golden is runEq5's output as recorded before f's chain and the hash
// chain moved to the shortsha kernel: the re-roll attack draws its fake
// leaves and its challenges through both, so any change to a hashed byte
// moves the measured column.
const eq5Golden = `re-rolling attack: rebuild the tree with fresh fake leaves until all
self-derived samples land in D' (measured over 30 seeds)

     r    m   expected 1/r^m    measured mean
  0.50    2              4.0              4.2
  0.50    4             16.0             21.1
  0.50    6             64.0             80.1
  0.75    8             10.0              9.6
  0.90   16              5.4              6.5

Eq. 5 defense: choose k in g = H^k so that (1/r^m)·m·k ≥ n·C_f
         n      C_f      r    m     required k    honest overhead
   1048576        8   0.90   16          97152          18.53027% (uneconomical ✓)
  16777216       16   0.95   32        1624970          19.37115% (uneconomical ✓)
1073741824       64   0.99   64      564354932          52.55965% (uneconomical ✓)

per §4.2, the honest participant's extra cost ratio is ≈ r^m — negligible.
`

// TestEq5RowsMatchTheAttackModel pins the re-rolling figure: each measured
// mean is 30 geometric draws with success probability r^m, so it must sit
// within four standard deviations, √((1−p)/30)/p, of
// ExpectedRerollAttempts; and the whole output equals the recorded one.
func TestEq5RowsMatchTheAttackModel(t *testing.T) {
	const seeds = 30
	var out bytes.Buffer
	if err := runEq5(&out); err != nil {
		t.Fatalf("runEq5: %v", err)
	}
	rows := 0
	sc := bufio.NewScanner(bytes.NewReader(out.Bytes()))
	for sc.Scan() {
		var r, printed, measured float64
		var m int
		if n, _ := fmt.Sscanf(sc.Text(), "%f %d %f %f", &r, &m, &printed, &measured); n != 4 || strings.Contains(sc.Text(), "%") {
			continue // titles, headers and the Eq. 5 sizing rows
		}
		rows++
		expected, err := analysis.ExpectedRerollAttempts(r, m)
		if err != nil {
			t.Fatalf("ExpectedRerollAttempts(%v, %d): %v", r, m, err)
		}
		if math.Abs(printed-expected) > 0.05 {
			t.Errorf("r=%.2f m=%d: expected column prints %.1f, the model gives %.2f", r, m, printed, expected)
		}
		p := 1 / expected
		sigma := math.Sqrt((1-p)/seeds) / p
		if math.Abs(measured-expected) > 4*sigma {
			t.Errorf("r=%.2f m=%d: measured mean %.1f is %.1f standard deviations from 1/r^m = %.1f",
				r, m, measured, math.Abs(measured-expected)/sigma, expected)
		}
	}
	if rows != 5 {
		t.Errorf("parsed %d re-roll rows of eq5, want 5:\n%s", rows, out.String())
	}
	if out.String() != eq5Golden {
		t.Errorf("eq5 output differs from the recorded one:\n%s", out.String())
	}
}

// TestFig2RowsMatchRequiredSamples pins Figure 2 against internal/analysis:
// both m columns of every row are RequiredSamples at ε = 1e-4, the r = 0.5
// row carries the paper's spot values 14 (q ≈ 0) and 33 (q = 0.5) and the
// figure prints them, and no cheater survives the live runs at m(q = 0).
func TestFig2RowsMatchRequiredSamples(t *testing.T) {
	const eps = 1e-4
	var out bytes.Buffer
	if err := runFig2(&out); err != nil {
		t.Fatalf("runFig2: %v", err)
	}
	rows := 0
	sc := bufio.NewScanner(bytes.NewReader(out.Bytes()))
	for sc.Scan() {
		var r, survival float64
		var m0, mHalf int
		if n, _ := fmt.Sscanf(sc.Text(), "%f %d %d %f", &r, &m0, &mHalf, &survival); n != 4 {
			continue // title, header and spot-value lines
		}
		rows++
		for _, col := range []struct {
			q       float64
			printed int
		}{{0, m0}, {0.5, mHalf}} {
			want, err := analysis.RequiredSamples(eps, r, col.q)
			if err != nil {
				t.Fatalf("RequiredSamples(%g, %v, %v): %v", eps, r, col.q, err)
			}
			if col.printed != want {
				t.Errorf("r=%.1f q=%.1f: figure prints m = %d, RequiredSamples gives %d", r, col.q, col.printed, want)
			}
		}
		if r == 0.5 && (m0 != 14 || mHalf != 33) {
			t.Errorf("r=0.5 row prints m = %d and %d, the paper's spot values are 14 and 33", m0, mHalf)
		}
		if survival != 0 {
			t.Errorf("r=%.1f: %.4f of the cheaters survived m = %d samples", r, survival, m0)
		}
	}
	if rows != 9 {
		t.Errorf("parsed %d rows of fig2, want 9:\n%s", rows, out.String())
	}
	if !strings.Contains(out.String(), "m(r=0.5, q=0.5) = 33, m(r=0.5, q≈0) = 14") {
		t.Errorf("fig2 does not print the paper's spot values:\n%s", out.String())
	}
}

// TestFig3RowsMatchRCO pins Figure 3 against internal/analysis: every row
// that stores less than the whole tree (ℓ > 0) measures exactly the
// relative computation overhead analysis.RCO gives for its m and stored
// slots, and prints that value as its analytic column; the full tree (ℓ = 0)
// rebuilds nothing; and the paper's spot value RCO(64, 2^32) = 2^-25 is
// printed.
func TestFig3RowsMatchRCO(t *testing.T) {
	const m = 16
	var out bytes.Buffer
	if err := runFig3(&out); err != nil {
		t.Fatalf("runFig3: %v", err)
	}
	rows := 0
	sc := bufio.NewScanner(bytes.NewReader(out.Bytes()))
	for sc.Scan() {
		var n, ell, stored, evals int
		var measured, analytic float64
		if k, _ := fmt.Sscanf(sc.Text(), "%d %d %d %d %f %f", &n, &ell, &stored, &evals, &measured, &analytic); k != 6 {
			continue // title, header and spot-value lines
		}
		rows++
		if ell == 0 {
			if evals != 0 || measured != 0 || analytic != 0 {
				t.Errorf("|D|=%d ℓ=0: the full tree rebuilt %d leaves (rco %v, analytic %v), want none", n, evals, measured, analytic)
			}
			continue
		}
		want, err := analysis.RCO(m, stored)
		if err != nil {
			t.Fatalf("RCO(%d, %d): %v", m, stored, err)
		}
		if exact := float64(evals) / float64(n); exact != want {
			t.Errorf("|D|=%d ℓ=%d: measured rco %d/%d = %v, analysis.RCO gives %v", n, ell, evals, n, exact, want)
		}
		if math.Abs(measured-want) > 5e-7 || math.Abs(analytic-want) > 5e-7 {
			t.Errorf("|D|=%d ℓ=%d: prints measured %v and analytic %v, analysis.RCO gives %v", n, ell, measured, analytic, want)
		}
	}
	if rows != 15 {
		t.Errorf("parsed %d rows of fig3, want 15:\n%s", rows, out.String())
	}
	if spot := fmt.Sprintf("RCO(64, 2^32) = %g = 2^-25 ✓", math.Ldexp(1, -25)); !strings.Contains(out.String(), spot) {
		t.Errorf("fig3 does not print %q:\n%s", spot, out.String())
	}
}

// TestVerifyFigureChecksEveryOutput pins the verify figure: every one of the
// factoring workload's outputs it times passes the cheap check, the same
// output with any one byte flipped is refused, and the figure prints its
// three report lines. Timings are not asserted.
func TestVerifyFigureChecksEveryOutput(t *testing.T) {
	f := workload.NewFactor(verifySeed)
	verifier, ok := workload.AsOutputVerifier(f)
	if !ok {
		t.Fatal("factor workload lost its verifier")
	}
	for x := uint64(0); x < verifyInputs; x++ {
		out := f.Eval(x)
		if !verifier.VerifyOutput(x, out) {
			t.Fatalf("output %d = %x refused", x, out)
		}
		for i := range out {
			out[i] ^= 0xff
			if verifier.VerifyOutput(x, out) {
				t.Fatalf("output %d with byte %d flipped (%x) verifies", x, i, out)
			}
			out[i] ^= 0xff
		}
	}

	var out bytes.Buffer
	if err := runVerify(&out); err != nil {
		t.Fatalf("runVerify: %v", err)
	}
	for _, line := range []*regexp.Regexp{
		regexp.MustCompile(`(?m)^  compute \(trial division\): +\S+ +\( *[0-9.]+ µs/input\)$`),
		regexp.MustCompile(`(?m)^  verify  \(multiply\+check\): +\S+ +\( *[0-9.]+ µs/input\)$`),
		regexp.MustCompile(`(?m)^  compute/verify ratio: [0-9]+x$`),
	} {
		if !line.Match(out.Bytes()) {
			t.Errorf("verify does not print a line matching %s:\n%s", line, out.String())
		}
	}
}
