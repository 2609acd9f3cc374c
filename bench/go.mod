module encmpibench

go 1.22

require encmpi v0.0.0

replace encmpi => ../
