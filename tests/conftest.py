import random

import pytest

from matsuo2 import fischer, matsuo
from matsuo2.gf import Field, lift_vec, vec_support


@pytest.fixture(scope="session")
def spaces():
    return {name: fischer.catalog(name) for name in fischer.CATALOG_NAMES}


def _relabelled(sp, seed):
    """The space with its points renumbered by a seeded permutation, each
    label carried along to its point's new number and its catalog metadata
    kept, and the permutation."""
    perm = list(range(sp.n_points))
    random.Random(seed).shuffle(perm)
    labels = [None] * sp.n_points
    for i, lab in enumerate(sp.labels):
        labels[perm[i]] = lab
    return fischer.validate(sp.n_points, [[perm[p] for p in t] for t in sp.lines],
                            labels=labels, meta=sp.meta), perm


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


def _product_by_definition(sp, x, mask):
    """x times the sum of the points of mask, one point y at a time:
    x*y = e_x + e_y + e_{x^y} when x and y are collinear, else 0.  It reads
    collinearity and wedges only, and no plane, so it is the reference of
    the row predictors of `matsuo`."""
    out = 0
    for y in vec_support(mask):
        if (sp.collinear[x] >> y) & 1:
            out ^= (1 << x) ^ (1 << y) ^ (1 << fischer.wedge(sp, x, y))
    return out


@pytest.fixture(scope="session")
def product_by_definition():
    return _product_by_definition


@pytest.fixture(scope="session")
def hall_space():
    """Hall's 81-point space from `fischer.hall81`; a seed renumbers its
    points by the seeded permutation of `_relabelled`."""
    def build(seed=None):
        sp = fischer.hall81()
        return sp if seed is None else _relabelled(sp, seed)[0]
    return build
