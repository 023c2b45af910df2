module sian/benchmark

go 1.22

require sian v0.0.0

replace sian => ../
