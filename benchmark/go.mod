module sdso/benchmark

go 1.22

require sdso v0.0.0

replace sdso => ../
