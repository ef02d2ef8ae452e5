package ec

import "sdso/internal/game"

// PinTimeout exports pinTimeout to the external tests.
const PinTimeout = pinTimeout

// AcquireOne exports acquireOne to the external tests.
func (n *Node) AcquireOne(lr game.Access) error { return n.acquireOne(lr) }
