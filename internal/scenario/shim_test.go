package scenario

import "time"

// failover_test.go scripts its own churn phase against the engine and is
// pinned unmodified across the interpreter merge; these keep the names it
// was written with, which the engine now exports as the World methods.

func (e *Engine) join()                               { e.Join() }
func (e *Engine) leave()                              { e.Leave() }
func (e *Engine) advance(d time.Duration)             { e.Run(d) }
func (e *Engine) expDelay(rate float64) time.Duration { return expDelay(e.rng, rate) }
