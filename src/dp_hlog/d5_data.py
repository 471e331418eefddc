"""Character data for the Weyl group of type D5 (order 1920).

The 18 x 18 integer character table below matches the output of GAP3's
``CharTable(CoxeterGroup("D", 5))``. Rows are irreducible characters and
columns conjugacy classes, both labeled by bipartitions of 5 (written
``lambda.mu``; a leading or trailing dot marks an empty part). Class
representatives are given as words in GAP's Coxeter generators zeta_1..zeta_5;
GAP's Dynkin labeling differs from the fundamental-root labeling used in
:mod:`dp_hlog.lattice` (fork at rho_3, arms rho_4/rho_5, tail rho_2-rho_1),
and the translation is ZETA_TO_S below, verified by reproducing the
line-permutation character on all 18 classes.
"""

from __future__ import annotations

CLASS_LABELS: tuple[str, ...] = (
    "(1^5.)", "(1^3.1^2)", "(1.1^4)", "(21^3.)", "(1^2.21)", "(21.1^2)",
    "(.21^3)", "(221.)", "(1.22)", "(2.21)", "(311.)", "(1.31)",
    "(3.11)", "(32.)", "(.32)", "(41.)", "(.41)", "(5.)",
)

IRREDUCIBLE_LABELS: tuple[str, ...] = (
    "[1^2.1^3]", "[1.1^4]", "[.1^5]", "[1^3.2]", "[1^2.21]", "[1.21^2]",
    "[.21^3]", "[1.2^2]", "[2.21]", "[.2^21]", "[1^2.3]", "[1.31]",
    "[.31^2]", "[2.3]", "[.32]", "[1.4]", "[.41]", "[.5]",
)

# Row s, column c: value of the s-th irreducible on the c-th class.
CHARACTER_TABLE: tuple[tuple[int, ...], ...] = (
    (10, -2,  2, -4,  2,  0, -2,  2, -2,  0,  1, -1,  1, -1,  1,  0,  0,  0),
    ( 5,  1, -3, -3, -1,  1,  3,  1,  1, -1,  2,  0, -2,  0,  0, -1,  1,  0),
    ( 1,  1,  1, -1, -1, -1, -1,  1,  1,  1,  1,  1,  1, -1, -1, -1, -1,  1),
    (10, -2,  2, -2,  0,  2, -4, -2,  2,  0,  1, -1,  1,  1, -1,  0,  0,  0),
    (20, -4,  4, -2,  2, -2,  2,  0,  0,  0, -1,  1, -1,  1, -1,  0,  0,  0),
    (15,  3, -9, -3, -1,  1,  3, -1, -1,  1,  0,  0,  0,  0,  0,  1, -1,  0),
    ( 4,  4,  4, -2, -2, -2, -2,  0,  0,  0,  1,  1,  1,  1,  1,  0,  0, -1),
    (10,  2, -6,  0,  0,  0,  0,  2,  2, -2, -2,  0,  2,  0,  0,  0,  0,  0),
    (20, -4,  4,  2, -2,  2, -2,  0,  0,  0, -1,  1, -1, -1,  1,  0,  0,  0),
    ( 5,  5,  5, -1, -1, -1, -1,  1,  1,  1, -1, -1, -1, -1, -1,  1,  1,  0),
    (10, -2,  2,  2,  0, -2,  4, -2,  2,  0,  1, -1,  1, -1,  1,  0,  0,  0),
    (15,  3, -9,  3,  1, -1, -3, -1, -1,  1,  0,  0,  0,  0,  0, -1,  1,  0),
    ( 6,  6,  6,  0,  0,  0,  0, -2, -2, -2,  0,  0,  0,  0,  0,  0,  0,  1),
    (10, -2,  2,  4, -2,  0,  2,  2, -2,  0,  1, -1,  1,  1, -1,  0,  0,  0),
    ( 5,  5,  5,  1,  1,  1,  1,  1,  1,  1, -1, -1, -1,  1,  1, -1, -1,  0),
    ( 5,  1, -3,  3,  1, -1, -3,  1,  1, -1,  2,  0, -2,  0,  0,  1, -1,  0),
    ( 4,  4,  4,  2,  2,  2,  2,  0,  0,  0,  1,  1,  1, -1, -1,  0,  0, -1),
    ( 1,  1,  1,  1,  1,  1,  1,  1,  1,  1,  1,  1,  1,  1,  1,  1,  1,  1),
)

# GAP's CoxeterWord representatives, one per class, in GAP generator labels.
CLASS_WORDS: tuple[tuple[int, ...], ...] = (
    (),
    (1, 2),
    (1, 2, 3, 1, 2, 3, 4, 3, 1, 2, 3, 4),
    (1,),
    (1, 2, 3),
    (1, 2, 4),
    (1, 2, 3, 1, 2, 3, 4, 3, 1, 2, 3, 4, 5),
    (1, 4),
    (1, 3, 1, 2, 3, 4),
    (1, 2, 3, 5),
    (1, 3),
    (1, 2, 3, 4),
    (1, 2, 4, 5),
    (1, 3, 5),
    (1, 3, 1, 2, 3, 4, 5),
    (1, 4, 3),
    (1, 2, 3, 4, 5),
    (1, 4, 3, 5),
)

# zeta_i (GAP generator) -> index of the corresponding fundamental root s_j,
# matching the two Dynkin labelings of D5 node by node.
ZETA_TO_S: dict[int, int] = {1: 4, 2: 5, 3: 3, 4: 2, 5: 1}

# Class values expected of the line character chi (16 lines) and of its
# alternating cube, the multiplicities of the irreducibles in that cube, and
# the irreducibles in chi.
D5_CHI = (16, 0, 0, 8, 0, 0, 0, 4, 0, 0, 4, 0, 0, 2, 0, 2, 0, 1)
D5_WEDGE3 = (560, 0, 0, 24, 0, 0, 0, -20, 0, 0, 8, 0, 0, 0, 0, -2, 0, 0)
D5_WEDGE3_MULTS = (1, 1, 0, 4, 5, 4, 1, 1, 6, 0, 5, 6, 3, 3, 1, 2, 2, 0)
D5_CHI_PARTS = ("[.5]", "[1.4]", "[2.3]")
