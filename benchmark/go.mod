module bfcbo/benchmark

go 1.24

require bfcbo v0.0.0

replace bfcbo => ../
