module cinderella/bench

go 1.22

require cinderella v0.0.0

replace cinderella => ../
