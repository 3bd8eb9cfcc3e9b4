# The synth-hs no case: three pairwise disjoint pairs need three elements,
# so no hitting set of size 2 exists. It is the criterion-06 no case
# (four pairs at kappa 3) one size down.
.model hs
.universe X1 X2 X3 X4 X5 X6
.set S1 X1 X2
.set S2 X3 X4
.set S3 X5 X6
.kappa 2
