package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func writeScenario(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "scenario.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const example3JSON = `{
  "kind": "additive",
  "horizon": 3,
  "optimizations": [{"id": 1, "cost": "100"}],
  "bids": [
    {"user": 1, "opt": 1, "start": 1, "end": 1, "values": ["101"]},
    {"user": 2, "opt": 1, "start": 1, "end": 3, "values": ["16","16","16"]},
    {"user": 3, "opt": 1, "start": 2, "end": 2, "values": ["26"]},
    {"user": 4, "opt": 1, "start": 2, "end": 2, "values": ["26"]}
  ]
}`

func TestPricerAdditiveExample3(t *testing.T) {
	path := writeScenario(t, example3JSON)
	var out strings.Builder
	if err := run(path, true, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"AddOn mechanism",
		"total utility:       $85.00",
		"cloud balance:       $75.00",
		"Regret baseline",
		"user 1 pays $100.00",
		"user 2 pays $25.00",
		"user 4 pays $25.00",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q\n%s", want, got)
		}
	}
}

func TestPricerSubstitutiveExample8(t *testing.T) {
	path := writeScenario(t, `{
	  "kind": "substitutive",
	  "horizon": 3,
	  "optimizations": [
	    {"id": 1, "cost": "60"}, {"id": 2, "cost": "100"}, {"id": 3, "cost": "50"}
	  ],
	  "bids": [
	    {"user": 1, "opts": [1,2], "start": 1, "end": 2, "values": ["100","100"]},
	    {"user": 2, "opts": [1,2,3], "start": 2, "end": 3, "values": ["100","100"]},
	    {"user": 3, "opts": [3], "start": 3, "end": 3, "values": ["100"]}
	  ]
	}`)
	var out strings.Builder
	if err := run(path, true, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	for _, want := range []string{
		"SubstOn mechanism",
		"optimization cost:   $110.00",
		"payments collected:  $110.00",
		"Regret baseline",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output missing %q\n%s", want, got)
		}
	}
}

func TestPricerRejectsBadScenarios(t *testing.T) {
	cases := map[string]string{
		"bad kind":    `{"kind": "other", "horizon": 1, "optimizations": [], "bids": []}`,
		"bad json":    `{`,
		"bad money":   `{"kind": "additive", "horizon": 1, "optimizations": [{"id":1,"cost":"x"}], "bids": []}`,
		"unknown key": `{"kind": "additive", "horizon": 1, "optimizations": [], "bids": [], "zzz": 1}`,
		"bad value": `{"kind": "additive", "horizon": 1,
		  "optimizations": [{"id":1,"cost":"1"}],
		  "bids": [{"user":1,"opt":1,"start":1,"end":1,"values":["??"]}]}`,
		"bad subst value": `{"kind": "substitutive", "horizon": 1,
		  "optimizations": [{"id":1,"cost":"1"}],
		  "bids": [{"user":1,"opts":[1],"start":1,"end":1,"values":["??"]}]}`,
	}
	for name, body := range cases {
		path := writeScenario(t, body)
		var out strings.Builder
		if err := run(path, false, &out); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
	if err := run(filepath.Join(t.TempDir(), "missing.json"), false, &strings.Builder{}); err == nil {
		t.Error("missing file accepted")
	}
}

// TestPricerRejectsMixedBidShapes pins the malformed-scenario messages:
// an additive bid carrying "opts", a substitutive bid carrying "opt",
// and bids naming no optimization at all must all fail with a message
// that tells the author which field to use.
func TestPricerRejectsMixedBidShapes(t *testing.T) {
	cases := []struct {
		name, body, wantMsg string
	}{
		{
			name: "additive bid with opts",
			body: `{"kind": "additive", "horizon": 1,
			  "optimizations": [{"id":1,"cost":"1"}],
			  "bids": [{"user":3,"opts":[1],"start":1,"end":1,"values":["2"]}]}`,
			wantMsg: `additive bid for user 3 carries "opts"`,
		},
		{
			name: "additive bid without opt",
			body: `{"kind": "additive", "horizon": 1,
			  "optimizations": [{"id":1,"cost":"1"}],
			  "bids": [{"user":4,"start":1,"end":1,"values":["2"]}]}`,
			wantMsg: `additive bid for user 4 names no optimization`,
		},
		{
			name: "substitutive bid with opt",
			body: `{"kind": "substitutive", "horizon": 1,
			  "optimizations": [{"id":1,"cost":"1"}],
			  "bids": [{"user":5,"opt":1,"start":1,"end":1,"values":["2"]}]}`,
			wantMsg: `substitutive bid for user 5 carries "opt"`,
		},
		{
			name: "substitutive bid without opts",
			body: `{"kind": "substitutive", "horizon": 1,
			  "optimizations": [{"id":1,"cost":"1"}],
			  "bids": [{"user":6,"start":1,"end":1,"values":["2"]}]}`,
			wantMsg: `substitutive bid for user 6 names no optimizations`,
		},
		{
			name: "bad money names the bidder",
			body: `{"kind": "additive", "horizon": 1,
			  "optimizations": [{"id":1,"cost":"1"}],
			  "bids": [{"user":7,"opt":1,"start":1,"end":1,"values":["oops"]}]}`,
			wantMsg: `bid for user 7`,
		},
		{
			name:    "unknown kind names the alternatives",
			body:    `{"kind": "quadratic", "horizon": 1, "optimizations": [], "bids": []}`,
			wantMsg: `unknown kind "quadratic" (want additive or substitutive)`,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := writeScenario(t, tc.body)
			err := run(path, false, &strings.Builder{})
			if err == nil {
				t.Fatal("malformed scenario accepted")
			}
			if !strings.Contains(err.Error(), tc.wantMsg) {
				t.Fatalf("error %q does not contain %q", err, tc.wantMsg)
			}
		})
	}
}
