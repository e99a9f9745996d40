package hw

import "fmt"

// Fleet describes the physical card pool of a serving deployment: Cards
// accelerators grouped into servers of CardsPerServer behind the in-server
// switch, with the inter-server network between groups. The serving layer
// (internal/serve) allocates card subsets out of a Fleet; the server
// boundaries matter because a job spanning servers pays the slower
// inter-server links for every broadcast (NetworkProfile.TransferTime).
type Fleet struct {
	Cards          int
	CardsPerServer int
}

// Validate checks the fleet shape.
func (f Fleet) Validate() error {
	if f.Cards <= 0 {
		return fmt.Errorf("hw: fleet needs at least one card, got %d", f.Cards)
	}
	if f.CardsPerServer <= 0 {
		return fmt.Errorf("hw: fleet needs a positive CardsPerServer, got %d", f.CardsPerServer)
	}
	return nil
}
