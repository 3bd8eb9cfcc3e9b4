# The README demo instance. A hitting set of size 2 exists ({X1, X3});
# with kappa 1 none does. The criterion-06 yes case is this instance at
# kappa 3.
.model hs
.universe X1 X2 X3 X4
.set S1 X1 X2
.set S2 X2 X3
.set S3 X1 X4
.set S4 X1 X3 X4
.kappa 2
