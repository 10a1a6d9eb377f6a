module github.com/quorumnet/quorumnet/bench

go 1.24

require github.com/quorumnet/quorumnet v0.0.0

replace github.com/quorumnet/quorumnet => ../
