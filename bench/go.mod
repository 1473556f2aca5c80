module intensional/bench

go 1.22

require intensional v0.0.0

replace intensional => ../
