module anufs/cmd/bench

go 1.22

require anufs v0.0.0

replace anufs => ../..
