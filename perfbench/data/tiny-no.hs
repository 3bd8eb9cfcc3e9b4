# Self-check input: two disjoint singletons need two elements.
.model hs
.universe X1 X2
.set S1 X1
.set S2 X2
.kappa 1
