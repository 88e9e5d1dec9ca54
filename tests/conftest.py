import itertools
import random

import pytest

from matsuo2 import fischer, matsuo
from matsuo2.gf import Field, lift_vec


@pytest.fixture(scope="session")
def spaces():
    return {name: fischer.catalog(name) for name in fischer.CATALOG_NAMES}


def _relabelled(sp, seed):
    """The space with its points renumbered by a seeded permutation, each
    label carried along to its point's new number, and the permutation."""
    perm = list(range(sp.n_points))
    random.Random(seed).shuffle(perm)
    labels = [None] * sp.n_points
    for i, lab in enumerate(sp.labels):
        labels[perm[i]] = lab
    return fischer.validate(sp.n_points, [[perm[p] for p in t] for t in sp.lines],
                            labels=labels), perm


@pytest.fixture(scope="session")
def relabelled():
    return _relabelled


@pytest.fixture(scope="session")
def algebras(spaces):
    return {name: matsuo.build(sp) for name, sp in spaces.items()}


@pytest.fixture(scope="session")
def reduced_algebras(algebras):
    return {name: matsuo.reduce(a) for name, a in algebras.items()}


def _lift_table(field: Field, table):
    """A 0/1 structure-constant table read over GF(2^k), as a GF(2) table on
    packed bits: entry (i*k + b, j*k + c), the product of x^b e_i and x^c e_j,
    is the lift of table[i][j] times x^(b+c), an integer product with no
    carries (one 0/1 entry per k-bit lane, a scalar below 2^k).  Over GF(2)
    the table is returned as it is.  `gf.bilinear` on this table is the
    algebra product over GF(2^k), the oracle of the Miyamoto map tests.
    """
    k = field.k
    if k == 1:
        return table
    n = len(table)
    powers = [field.power(2, e) for e in range(2 * k - 1)]
    lifted = [[lift_vec(field, t, n) for t in row] for row in table]
    return tuple(
        tuple(lifted[i][j] * powers[b + c] for j in range(n) for c in range(k))
        for i in range(n) for b in range(k)
    )


@pytest.fixture(scope="session")
def lift_table():
    return _lift_table


def _hall_space(seed=None):
    """Hall's 81-point triple system on F_3^4, points labelled [p,q,r,s]:
    lines {x, y, x o y} with x o y = -x - y + (0, 0, 0, (x3 - y3)(x1 y2 - x2 y1)).
    A seed numbers the points in a shuffled order."""
    pts = list(itertools.product(range(3), repeat=4))
    order = list(range(len(pts)))
    if seed is not None:
        random.Random(seed).shuffle(order)
    index = dict(zip(pts, order))

    def op(x, y):
        twist = (x[2] - y[2]) * (x[0] * y[1] - x[1] * y[0])
        return tuple((-a - b) % 3 for a, b in zip(x[:3], y[:3])) + ((twist - x[3] - y[3]) % 3,)

    lines = {tuple(sorted((index[x], index[y], index[op(x, y)])))
             for i, x in enumerate(pts) for y in pts[i + 1:]}
    labels = [None] * len(pts)
    for p, i in index.items():
        labels[i] = "[" + ",".join(str(c) for c in p) + "]"
    return fischer.validate(len(pts), sorted(lines), labels=labels)


@pytest.fixture(scope="session")
def hall_space():
    return _hall_space
