module fedshap/bench

go 1.22

require fedshap v0.0.0

replace fedshap => ../
