module llama4d/bench

go 1.22

require llama4d v0.0.0

replace llama4d => ../
