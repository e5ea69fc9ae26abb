module mssg/benchmark

go 1.22

require mssg v0.0.0

replace mssg => ../
