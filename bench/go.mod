module adavp/bench

go 1.22

require adavp v0.0.0

replace adavp => ../
