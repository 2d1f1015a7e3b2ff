module gondi/bench

go 1.22

require gondi v0.0.0

replace gondi => ../
