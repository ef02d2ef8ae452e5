package main

import "testing"

func TestRunFlagValidation(t *testing.T) {
	for _, args := range [][]string{
		{"-range", "7"},
		{"-fig", "99"},
		{"-bogus"},
		// Rejected before any game runs: quorum divided by zero seeds and
		// a negative count could not size the seed list.
		{"-seeds", "0", "-fig", "quorum"},
		{"-seeds", "-1"},
		// Figure 8 is range 1 only.
		{"-fig", "8", "-range", "3"},
	} {
		if err := run(args); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
}

func TestRunSingleFigure(t *testing.T) {
	if testing.Short() {
		t.Skip("full sweep")
	}
	if err := run([]string{"-fig", "7", "-range", "1", "-seeds", "1", "-ticks", "100"}); err != nil {
		t.Fatalf("run: %v", err)
	}
}
