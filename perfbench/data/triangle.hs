# The atom-hs input for construction 1.4: the three pairs of three
# elements. Any two elements hit every pair; no single one does, so it is
# a yes at kappa 2 and a no at kappa 1.
.model hs
.universe X1 X2 X3
.set S1 X1 X2
.set S2 X2 X3
.set S3 X1 X3
.kappa 2
