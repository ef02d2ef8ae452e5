// The schedule explorer: drives a runner over many seeded delivery orders
// (each seed perturbs message delivery through vtime.Jitter, and optionally
// layers a faultnet drop/delay plan on top) and, on failure, greedily
// shrinks the scenario to the smallest still-failing one so the report ends
// with a single reproducible command line.
package check

import (
	"fmt"
	"strings"
)

// Scenario is one point in the explored schedule space. The runner maps it
// to a full simulated game; everything it does must derive deterministically
// from these fields.
type Scenario struct {
	// Seed drives the delivery-order jitter (and the fault plan, when
	// Faults is set).
	Seed int64
	// Ticks bounds the game length.
	Ticks int
	// Teams is the number of players.
	Teams int
	// Faults layers the ambient drop/delay plan over the jittered links.
	Faults bool
}

func (s Scenario) String() string {
	f := ""
	if s.Faults {
		f = " faults"
	}
	return fmt.Sprintf("seed=%d ticks=%d teams=%d%s", s.Seed, s.Ticks, s.Teams, f)
}

// Runner executes one scenario and returns the oracle's verdict. A non-nil
// error (a simulation that failed to complete) counts as a failure for
// exploration purposes.
type Runner func(Scenario) (*Report, error)

// ExploreConfig parameterizes one exploration sweep.
type ExploreConfig struct {
	// Schedules is the number of seeds to explore.
	Schedules int
	// BaseSeed is the first seed; scenario i runs seed BaseSeed+i.
	BaseSeed int64
	// Ticks and Teams shape every scenario.
	Ticks, Teams int
	// FaultEvery enables the fault plan on every FaultEvery-th scenario
	// (0 disables fault scenarios entirely).
	FaultEvery int
}

// shrinkBudget bounds the number of extra runs spent shrinking a failure.
const shrinkBudget = 12

// Failure is one failing scenario, after shrinking.
type Failure struct {
	// Scenario is the original failing point.
	Scenario Scenario
	// Shrunk is the smallest still-failing scenario found.
	Shrunk Scenario
	// Report is the oracle verdict at the shrunk scenario (nil when the
	// failure was a run error).
	Report *Report
	// Err is the run error at the shrunk scenario, if any.
	Err error
}

func (f Failure) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "scenario {%s} failed", f.Scenario)
	if f.Shrunk != f.Scenario {
		fmt.Fprintf(&b, "; shrunk to {%s}", f.Shrunk)
	}
	switch {
	case f.Err != nil:
		fmt.Fprintf(&b, ": %v", f.Err)
	case f.Report != nil:
		fmt.Fprintf(&b, ": %s", f.Report)
	}
	return b.String()
}

// ExploreResult summarizes one sweep.
type ExploreResult struct {
	// Explored is the number of scenarios run (shrink reruns excluded).
	Explored int
	// FaultRuns is how many of those carried a fault plan.
	FaultRuns int
	// Events is the total events analyzed across clean scenarios.
	Events int
	// Failures holds every failing scenario, shrunk.
	Failures []Failure
}

// Ok reports whether the whole sweep passed.
func (r *ExploreResult) Ok() bool { return len(r.Failures) == 0 }

// Explore sweeps the schedule space and shrinks any failures.
func Explore(cfg ExploreConfig, run Runner) *ExploreResult {
	res := &ExploreResult{}
	for i := 0; i < cfg.Schedules; i++ {
		sc := Scenario{
			Seed:  cfg.BaseSeed + int64(i),
			Ticks: cfg.Ticks,
			Teams: cfg.Teams,
			Faults: cfg.FaultEvery > 0 &&
				i%cfg.FaultEvery == cfg.FaultEvery-1,
		}
		res.Explored++
		if sc.Faults {
			res.FaultRuns++
		}
		rep, err := run(sc)
		if err == nil && rep.Ok() {
			res.Events += rep.Events
			continue
		}
		shrunk, srep, serr := shrink(sc, rep, err, run, shrinkBudget)
		res.Failures = append(res.Failures, Failure{
			Scenario: sc, Shrunk: shrunk, Report: srep, Err: serr,
		})
	}
	return res
}

// shrink greedily minimizes a failing scenario: first try dropping the
// fault plan (a failure that survives without faults is a stronger
// counterexample), then halve the tick budget while the failure persists.
// Every candidate that stops failing is discarded and shrinking resumes
// from the last failing scenario, within budget.
func shrink(sc Scenario, rep *Report, err error, run Runner, budget int) (Scenario, *Report, error) {
	failing := func(r *Report, e error) bool { return e != nil || !r.Ok() }
	best, bestRep, bestErr := sc, rep, err
	if best.Faults && budget > 0 {
		cand := best
		cand.Faults = false
		r, e := run(cand)
		budget--
		if failing(r, e) {
			best, bestRep, bestErr = cand, r, e
		}
	}
	for budget > 0 && best.Ticks > 4 {
		cand := best
		cand.Ticks = best.Ticks / 2
		if cand.Ticks < 4 {
			cand.Ticks = 4
		}
		r, e := run(cand)
		budget--
		if !failing(r, e) {
			break
		}
		best, bestRep, bestErr = cand, r, e
	}
	return best, bestRep, bestErr
}
