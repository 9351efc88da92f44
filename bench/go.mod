module trapquorum/bench

go 1.22

require trapquorum v0.0.0

replace trapquorum => ../
