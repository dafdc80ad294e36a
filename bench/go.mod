module sassi/bench

go 1.22

require sassi v0.0.0

replace sassi => ../
