module drftest/benchmark

go 1.22

require drftest v0.0.0

replace drftest => ../
