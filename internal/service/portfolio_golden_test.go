package service

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"codar/internal/arch"
	"codar/internal/calib"
	"codar/internal/placement"
	"codar/internal/portfolio"
	"codar/internal/qasm"
	"codar/internal/workloads"
)

// goldenCircuits are the Fig 8 suite programs the portfolio golden test
// maps on Tokyo.
var goldenCircuits = []string{"qft_10", "rand_10_g300", "adder_6", "qaoa_12_p2", "ghz_16"}

// goldenPortfolioHashes pin, per grid, the sha256 of every library result
// (winner QASM, both layouts, every candidate row) over goldenCircuits,
// and of every codard /v1/map portfolio response body.
var goldenPortfolioHashes = map[string]string{
	"library/default":       "1d1fd1f93e0e9fcf605d91c6ab9c5fc72aa2180ed9c99d203458f14ff7588e8a",
	"library/min-swaps":     "e8cc9d8dc32ea43e38059189f7af9099c38c44421bfd652d788bfe06b364b55a",
	"library/max-esp":       "9801a15143d9d8b5e95376185fd22308dcc6582b5b5235e47a52950ae521882e",
	"library/bad-placement": "e09b300fb266bb73b28b68a57f9ca62c3787d2bde534f91bb3d0f03be9d94021",
	"library/no-fit":        "d4d078cc25437c9b7aa3e9a39e6f5ebc507e35e9a7f7ab2f4029f5617effaa52",
	"codard/default":        "2af470df73fcc289320c22360c6cb808308d596c0107c42e1719c69feff7b0bd",
	"codard/min-swaps":      "d60c28497e0db34834d1516fa7e6ad773c550ead522f605731aa99de1b92c498",
	"codard/max-esp":        "9aea9ab11eaa8a4563680e5925e8c10a89f19d12d04b721368049aa3706749f0",
}

// portfolioFingerprint renders everything a portfolio run decides: the
// winner's index, bytes and layouts, the tallies and every candidate row,
// or the run's error text.
func portfolioFingerprint(t *testing.T, res *portfolio.Result, err error) string {
	t.Helper()
	if err != nil {
		return "error: " + err.Error()
	}
	rows, jerr := json.Marshal(res.Candidates)
	if jerr != nil {
		t.Fatal(jerr)
	}
	w := res.Winner
	return fmt.Sprintf("%s|%d|%d|%d\n%s\n%s\n%s\n%s", res.Objective, res.WinnerIndex, res.Completed, res.Abandoned,
		qasm.Write(w.Circuit), w.InitialLayout, w.FinalLayout, rows)
}

// TestPortfolioGoldenBytes pins the portfolio's output bytes: the library
// result on five suite circuits on Tokyo (4 workers, early abandon off)
// for the default grid, min-swaps and calibrated max-esp, the error of a
// grid naming an unknown placement and of a grid where nothing fits, and
// the codard /v1/map portfolio response bodies for the first three grids.
func TestPortfolioGoldenBytes(t *testing.T) {
	dev := arch.IBMQ20Tokyo()
	snap := calib.Synthetic(dev, 1)
	cost, err := snap.CostModel(dev, 0)
	if err != nil {
		t.Fatal(err)
	}
	grids := []struct {
		name string
		spec portfolio.Spec
		wire PortfolioSpec
	}{
		{"default", portfolio.Spec{}, PortfolioSpec{}},
		{"min-swaps", portfolio.Spec{Objective: portfolio.ObjectiveMinSwaps}, PortfolioSpec{Objective: "min-swaps"}},
		{"max-esp", portfolio.Spec{
			Objective: portfolio.ObjectiveMaxESP,
			Snapshot:  snap,
			Cost:      cost,
		}, PortfolioSpec{Objective: "max-esp"}},
		{"bad-placement", portfolio.Spec{
			Placements: []placement.Method{placement.MethodTrivial, "bogus", placement.MethodSabreReverse},
		}, PortfolioSpec{}},
	}
	hashes := map[string]string{}
	for _, g := range grids {
		h := sha256.New()
		for _, name := range goldenCircuits {
			b, err := workloads.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			spec := g.spec
			spec.Workers = 4
			res, err := portfolio.Run(b.Circuit(), dev, spec)
			fmt.Fprintf(h, "%s\n%s\n", name, portfolioFingerprint(t, res, err))
		}
		hashes["library/"+g.name] = hex.EncodeToString(h.Sum(nil))
	}
	wide, err := workloads.ByName("qft_10")
	if err != nil {
		t.Fatal(err)
	}
	small, err := arch.ByName("linear6")
	if err != nil {
		t.Fatal(err)
	}
	res, err := portfolio.Run(wide.Circuit(), small, portfolio.Spec{Workers: 4})
	hashes["library/no-fit"] = fmt.Sprintf("%x", sha256.Sum256([]byte(portfolioFingerprint(t, res, err))))

	s := newTestServer(t, Config{})
	uploadCalibration(t, s, "tokyo", 1)
	for _, g := range grids[:3] {
		h := sha256.New()
		for _, name := range goldenCircuits {
			b, err := workloads.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			wire := g.wire
			req := MapRequest{QASM: qasm.Write(b.Circuit()), Arch: "tokyo", Portfolio: &wire, Calibrated: g.name == "max-esp"}
			w := do(t, s, http.MethodPost, "/v1/map", req)
			if w.Code != http.StatusOK {
				t.Fatalf("%s/%s: status %d: %s", g.name, name, w.Code, w.Body.String())
			}
			fmt.Fprintf(h, "%s\n%s\n", name, w.Body.Bytes())
		}
		hashes["codard/"+g.name] = hex.EncodeToString(h.Sum(nil))
	}

	var got []string
	for k, v := range hashes {
		got = append(got, fmt.Sprintf("%q: %q,", k, v))
		if want := goldenPortfolioHashes[k]; v != want {
			t.Errorf("%s: sha256 %s, want %s", k, v, want)
		}
	}
	if t.Failed() {
		t.Logf("hashes:\n%s", strings.Join(got, "\n"))
	}
}
