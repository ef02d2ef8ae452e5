package ec_test

import (
	"testing"
	"time"

	"sdso/internal/game"
	"sdso/internal/protocol/ec"
	"sdso/internal/protocol/lrc"
	"sdso/internal/transport"
)

// TestECConfigValidation holds both builders of the lock node, EC's and
// LRC's, to the endpoint layout, and LRC's, whose node is fault-free, to
// none of EC's crash-tolerance settings.
func TestECConfigValidation(t *testing.T) {
	cfg := game.DefaultConfig(2, 1)
	net := transport.NewMemNetwork(4)
	defer net.Close()
	app, svc := net.Endpoint(0), net.Endpoint(2)
	for _, b := range []struct {
		name  string
		build func(ec.NodeConfig) (*ec.Node, error)
	}{{"EC", ec.New}, {"LRC", lrc.New}} {
		if _, err := b.build(ec.NodeConfig{Game: cfg}); err == nil {
			t.Errorf("%s: missing endpoints accepted", b.name)
		}
		if _, err := b.build(ec.NodeConfig{Game: cfg, App: app, Svc: net.Endpoint(1)}); err == nil {
			t.Errorf("%s: mismatched svc endpoint accepted", b.name)
		}
		if _, err := b.build(ec.NodeConfig{Game: cfg, App: net.Endpoint(3), Svc: svc}); err == nil {
			t.Errorf("%s: app id out of team range accepted", b.name)
		}
		if _, err := b.build(ec.NodeConfig{Game: cfg, App: app, Svc: svc}); err != nil {
			t.Errorf("%s: a fault-free node refused: %v", b.name, err)
		}
	}
	// Each crash-tolerance setting alone is LRC's to refuse; with its
	// failure detector, EC takes it.
	for name, c := range map[string]ec.NodeConfig{
		"SuspectTimeout": {SuspectTimeout: time.Millisecond},
		"Rejoin":         {Rejoin: true, Incarnation: 1},
		"QuorumF":        {QuorumF: 1},
	} {
		c.Game, c.App, c.Svc = cfg, app, svc
		if _, err := lrc.New(c); err == nil {
			t.Errorf("LRC accepted %s", name)
		}
		c.SuspectTimeout = time.Millisecond
		if _, err := ec.New(c); err != nil {
			t.Errorf("EC refused %s: %v", name, err)
		}
	}
}
