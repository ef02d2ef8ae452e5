package harness

import (
	"errors"
	"strings"
	"testing"

	"sdso/internal/transport"
	"sdso/internal/vtime"
)

// TestPlayReportsProcessErrorsOfAFailedRun: when a process fails and the
// others then wait forever, the run's error names the simulation's failure
// and every process error, labelled by role, in process order, but not the
// closed endpoint a waiting process sees when the failed run ends it; a
// process error alone is returned as it is.
func TestPlayReportsProcessErrorsOfAFailedRun(t *testing.T) {
	errApp, errSvc := errors.New("lost its lock"), errors.New("object not managed here")
	c := simCluster{name: "EC", procs: 4, nodes: 2}
	err := c.play(Config{}, func(proc int, ep transport.Endpoint) error {
		switch proc {
		case 0:
			_, err := ep.Recv() // nobody sends: waits forever
			return err
		case 1:
			return errApp
		case 3:
			return errSvc
		}
		return nil
	})
	if !errors.Is(err, vtime.ErrDeadlock) || !errors.Is(err, errApp) || !errors.Is(err, errSvc) {
		t.Fatalf("got %v, want the deadlock and both process errors", err)
	}
	msg := err.Error()
	sim, app, svc := strings.Index(msg, "EC simulation: "), strings.Index(msg, "EC app 1: lost"), strings.Index(msg, "EC service 1: object")
	if sim < 0 || app < sim || svc < app || strings.Contains(msg, "app 0") {
		t.Errorf("got %q, want the simulation's failure, then app 1's error, then service 1's", msg)
	}

	err = c.play(Config{}, func(proc int, _ transport.Endpoint) error {
		if proc >= 1 {
			return errApp
		}
		return nil
	})
	if err == nil || err.Error() != "EC app 1: "+errApp.Error() {
		t.Errorf("a finished run: got %v, want app 1's error alone", err)
	}
}
