# Self-check input: compiled by 1.1 it is solvable outright at d=4.
.model hs
.universe X1 X2
.set S1 X1 X2
.kappa 2
