module treep/bench

go 1.24

// The benchmark is a module of its own so that it builds from bench/
// alone and stays out of the root module's build and tests; it imports
// the overlay from the parent directory and nothing else.
require treep v0.0.0

replace treep => ../
