import random

import pytest

from matsuo2.gf import (
    Field,
    FieldMatrix,
    NoSolution,
    bilinear,
    echelon_basis,
    lift_matrix,
    span_equal,
    vec_entry,
    vec_from_list,
    vec_scale,
    vec_support,
    vec_to_list,
)


def test_gf4_omega_squared():
    f = Field(2)
    w = 2
    assert f.mul(w, w) == 3  # w^2 = w + 1


def test_one_is_identity():
    for k in (1, 2, 3, 4, 8):
        f = Field(k)
        for a in f.elements():
            assert f.mul(1, a) == a


def test_gf8_associativity_exhaustive():
    f = Field(3)
    for a in f.elements():
        for b in f.elements():
            for c in f.elements():
                assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_field_axioms_exhaustive(k):
    f = Field(k)
    els = list(f.elements())
    for a in els:
        assert f.add(a, a) == 0  # characteristic 2
        assert f.add(a, 0) == a
        assert f.mul(a, 0) == 0
        for b in els:
            assert f.mul(a, b) == f.mul(b, a)
            assert f.add(a, b) == f.add(b, a)
            assert f.mul(a, b) < f.order
            for c in els:
                assert f.mul(a, f.add(b, c)) == f.add(f.mul(a, b), f.mul(a, c))
    for a in f.nonzero():
        assert f.mul(a, f.inv(a)) == 1


def test_inverse_exhaustive_gf8():
    f = Field(3)
    for a in f.nonzero():
        assert f.mul(a, f.inv(a)) == 1


def test_zero_has_no_inverse():
    f = Field(4)
    with pytest.raises(ZeroDivisionError):
        f.inv(0)


def test_nonzero_elements_cyclic():
    for k in (2, 3, 4, 8):
        f = Field(k)
        g = f.generator
        seen = set()
        x = 1
        for _ in range(f.order - 1):
            seen.add(x)
            x = f.mul(x, g)
        assert seen == set(f.nonzero())


def test_fel_wrappers():
    # Field elements are plain ints; Field's own methods do the arithmetic
    # and the printing.
    f = Field(2)
    w = 2
    assert f.mul(w, w) == 3
    assert f.inv(w) == 3
    assert f.inv(1) == 1
    assert f.pretty(w) == "w"
    assert f.pretty(3) == "w+1"
    assert f.add(w, w) == 0


def test_fields_with_equal_k_interchangeable():
    assert Field(3) == Field(3)
    assert Field(3).mul(5, 6) == Field(3).mul(5, 6)
    assert hash(Field(4)) == hash(Field(4))


def test_fel_gf8_inverse_sweep():
    f = Field(3)
    for a in f.nonzero():
        assert f.mul(a, f.inv(a)) == 1
        assert f.mul(f.inv(a), a) == 1
        assert f.inv(f.inv(a)) == a


# -- matrices ---------------------------------------------------------------


def test_kernel_zero_matrix():
    f = Field(1)
    m = FieldMatrix.zeros(f, 3, 3)
    assert m.kernel() == (0b001, 0b010, 0b100)


def test_kernel_identity_empty():
    f = Field(1)
    assert FieldMatrix.identity(f, 4).kernel() == ()


def test_rank_identity():
    for k in (1, 2):
        f = Field(k)
        for n in (1, 3, 5):
            assert FieldMatrix.identity(f, n).rank() == n


def _kernel_power(m, n):
    """Basis of ker(m^n) from kernel_chain, whose last basis holds for every later power."""
    chain = list(m.kernel_chain())
    return chain[min(n, len(chain)) - 1]


def test_iterated_kernel_jordan_block():
    f = Field(1)
    # nilpotent 2x2 Jordan block: e2 -> e1 -> 0
    m = FieldMatrix.from_rows(f, [[0, 1], [0, 0]])
    assert len(m.kernel()) == 1
    assert _kernel_power(m, 2) == (0b01, 0b10)


def test_iterated_kernel_monotone_and_stable():
    rng = random.Random(20230822)
    for k in (1, 2):
        f = Field(k)
        for _ in range(25):
            n = rng.randrange(1, 7)
            m = FieldMatrix.from_rows(
                f, [[rng.randrange(f.order) for _ in range(n)] for _ in range(n)]
            )
            dims = [len(_kernel_power(m, p)) for p in range(1, n + 2)]
            assert all(d1 <= d2 for d1, d2 in zip(dims, dims[1:]))
            assert dims[-1] == dims[-2]  # stabilized by n = ncols
            big = _kernel_power(m, n)
            if big:
                B = FieldMatrix.from_cols(f, n, big)
                for v in m.kernel():
                    B.solve(v)  # ker(M) inside ker(M^n); raises otherwise


def test_kernel_chain_grows_until_stable():
    rng = random.Random(7070)
    for k in (1, 2):
        f = Field(k)
        for _ in range(40):
            n = rng.randrange(1, 7)
            rows = [[rng.randrange(f.order) for _ in range(n)] for _ in range(n)]
            for i in range(n):  # zero some rows on and below the diagonal: longer chains
                if rng.random() < 0.5:
                    rows[i][: i + 1] = [0] * (i + 1)
            m = FieldMatrix.from_rows(f, rows)
            chain = list(m.kernel_chain())
            assert len(chain) <= n
            for p, basis in enumerate(chain, 1):
                assert basis == (m ** p).kernel()
            assert all(len(a) < len(b) for a, b in zip(chain, chain[1:]))
            assert (m ** (len(chain) + 1)).kernel() == chain[-1]
            assert chain[-1] == (m ** n).kernel()


def test_kernel_contains_plain_kernel():
    f = Field(1)
    m = FieldMatrix.from_rows(f, [[1, 1, 0], [0, 0, 0], [0, 1, 1]])
    ker = m.kernel()
    *_, big = m.kernel_chain()
    for v in ker:
        # v must be a combination of the iterated-kernel basis
        B = FieldMatrix.from_cols(f, 3, big)
        B.solve(v)  # raises if not in span


def test_solve_basic_and_inconsistent():
    f = Field(1)
    m = FieldMatrix.from_rows(f, [[1, 0], [1, 0], [0, 1]])
    b = vec_from_list(f, [1, 1, 0])
    x = m.solve(b)
    assert m.matvec(x) == b
    with pytest.raises(NoSolution):
        m.solve(vec_from_list(f, [1, 0, 0]))


def test_solve_gf4():
    f = Field(2)
    m = FieldMatrix.from_rows(f, [[2, 1], [1, 1]])
    b = vec_from_list(f, [3, 2])
    x = m.solve(b)
    assert m.matvec(x) == b


def test_inverse_round_trip():
    rng = random.Random(7)
    for k in (1, 2, 3):
        f = Field(k)
        found = 0
        while found < 5:
            n = 4
            m = FieldMatrix.from_rows(
                f, [[rng.randrange(f.order) for _ in range(n)] for _ in range(n)]
            )
            try:
                mi = m.inverse()
            except NoSolution:
                continue
            found += 1
            assert m * mi == FieldMatrix.identity(f, n)
            assert mi * m == FieldMatrix.identity(f, n)


def _random_matrix(rng, f, nrows, ncols):
    return FieldMatrix.from_rows(
        f, [[rng.randrange(f.order) for _ in range(ncols)] for _ in range(nrows)]
    )


def test_matmul_agrees_with_entrywise_definition():
    rng = random.Random(99)
    for k in range(1, 9):
        f = Field(k)
        cases = [
            (_random_matrix(rng, f, 3, 4), _random_matrix(rng, f, 4, 2)),
            (_random_matrix(rng, f, 1, 1), _random_matrix(rng, f, 1, 1)),
            (_random_matrix(rng, f, 3, 7), _random_matrix(rng, f, 7, 2)),
            (FieldMatrix.zeros(f, 3, 5), _random_matrix(rng, f, 5, 4)),
            (_random_matrix(rng, f, 4, 5), FieldMatrix.zeros(f, 5, 3)),
            (FieldMatrix.identity(f, 5), _random_matrix(rng, f, 5, 6)),
            (_random_matrix(rng, f, 6, 5), FieldMatrix.identity(f, 5)),
        ]
        for a, b in cases:
            c = a * b
            assert (c.nrows, c.ncols) == (a.nrows, b.ncols)
            for i in range(a.nrows):
                for j in range(b.ncols):
                    s = 0
                    for t in range(a.ncols):
                        s ^= f.mul(a.entry(i, t), b.entry(t, j))
                    assert c.entry(i, j) == s
        a = _random_matrix(rng, f, 4, 4)
        assert a * FieldMatrix.identity(f, 4) == a == FieldMatrix.identity(f, 4) * a
        assert (a * FieldMatrix.zeros(f, 4, 4)).is_zero()


@pytest.mark.parametrize("k", range(1, 9))
def test_row_images_are_powers_of_x_times_rows(k):
    rng = random.Random(500 + k)
    f = Field(k)
    for ncols in (1, 6, 12):
        m = _random_matrix(rng, f, 4, ncols)
        images = m.row_images()
        assert len(images) == m.nrows * k
        for j in range(m.nrows):
            for b in range(k):
                xb = f.power(2, b)
                for t in range(m.ncols):
                    got = (images[j * k + b] >> (t * k)) & f.mask
                    assert got == f.mul(xb, m.entry(j, t))


def _kernel_reference(m):
    """Kernel read off the ascending rref entry by entry, then put in reduced
    echelon form by `echelon_basis`."""
    f = m.field
    R, pivots = m.rref()
    basis = []
    for fc in range(m.ncols):
        if fc in pivots:
            continue
        v = 1 << (fc * f.k)
        for r, pc in enumerate(pivots):
            v |= R.entry(r, fc) << (pc * f.k)
        basis.append(v)
    return echelon_basis(f, basis, m.ncols)


@pytest.mark.parametrize("k", range(1, 9))
def test_kernel_and_from_cols_match_entrywise_reference(k):
    rng = random.Random(700 + k)
    f = Field(k)
    for nrows, rank, ncols in ((4, 2, 6), (5, 5, 5), (3, 0, 4), (6, 3, 3), (1, 1, 7)):
        m = _random_matrix(rng, f, nrows, rank) * _random_matrix(rng, f, rank, ncols)
        assert m.kernel() == _kernel_reference(m)
        for v in m.kernel():
            assert m.matvec(v) == 0
        # columns may carry entries past nrows; from_cols drops them
        cols = [rng.randrange(f.order ** (nrows + 2)) for _ in range(ncols)]
        c = FieldMatrix.from_cols(f, nrows, cols)
        assert (c.nrows, c.ncols) == (nrows, ncols)
        for i in range(nrows):
            for j in range(ncols):
                assert c.entry(i, j) == vec_entry(f, cols[j], i)
        for a in (m, c):
            for j in range(a.ncols):
                expect = 0
                for i in range(a.nrows):
                    expect |= a.entry(i, j) << (i * k)
                assert a.col(j) == expect


@pytest.mark.parametrize("k", range(1, 9))
def test_kernel_is_echelon_basis_of_rref_kernel(k):
    rng = random.Random(1100 + k)
    f = Field(k)
    assert FieldMatrix.zeros(f, 2, 0).kernel() == ()
    for _ in range(150):
        nrows, ncols = rng.randrange(1, 8), rng.randrange(1, 9)
        rank = rng.randrange(min(nrows, ncols) + 1)
        m = FieldMatrix.zeros(f, nrows, ncols)
        if rank:
            m = _random_matrix(rng, f, nrows, rank) * _random_matrix(rng, f, rank, ncols)
        assert m.kernel() == _kernel_reference(m)


@pytest.mark.parametrize("k", range(2, 9))
def test_matvec_matches_entrywise_reference(k):
    rng = random.Random(1200 + k)
    f = Field(k)
    for nrows in (0, 1, 5):
        for ncols in (0, 1, 12):
            m = FieldMatrix(f, nrows, ncols, [rng.getrandbits(ncols * k) for _ in range(nrows)])
            for v in (0, rng.getrandbits(ncols * k), rng.getrandbits(ncols * k + 9)):
                expect = 0
                for i in range(nrows):
                    acc = 0
                    for j in range(ncols):
                        acc ^= f.mul(m.entry(i, j), vec_entry(f, v, j))
                    expect |= acc << (i * k)
                assert m.matvec(v) == expect


def test_vec_support_lists_set_bits_ascending():
    rng = random.Random(81)
    masks = [0, 1, 1 << 80, (1 << 81) - 1]
    masks += [rng.getrandbits(rng.randrange(1, 82)) for _ in range(300)]
    for m in masks:
        assert vec_support(m) == [i for i in range(81) if m >> i & 1]


def test_dimension_mismatch_errors():
    f = Field(1)
    a = FieldMatrix.identity(f, 3)
    b = FieldMatrix.identity(f, 4)
    with pytest.raises(ValueError):
        a * b
    with pytest.raises(ValueError):
        a + b


def test_kernel_recomputation_bit_identical():
    f = Field(2)
    m = FieldMatrix.from_rows(f, [[1, 2, 3], [2, 3, 1], [3, 1, 2]])
    assert m.kernel() == m.kernel()
    assert m.rref()[0].rows == m.rref()[0].rows


def test_matvec_roundtrip_lists():
    f = Field(3)
    m = FieldMatrix.from_rows(f, [[1, 2], [4, 7], [0, 3]])
    v = vec_from_list(f, [5, 6])
    out = m.matvec(v)
    expect = []
    for i in range(3):
        s = 0
        for j in range(2):
            s ^= f.mul(m.entry(i, j), vec_entry_list(v, f, j))
        expect.append(s)
    assert vec_to_list(f, out, 3) == expect


def vec_entry_list(v, f, j):
    return (v >> (j * f.k)) & f.mask


def test_lift_matrix_and_span_equal():
    f2 = Field(1)
    f4 = Field(2)
    m = FieldMatrix.from_rows(f2, [[1, 0, 1], [0, 1, 1]])
    lifted = lift_matrix(f4, m)
    assert lifted.entry(0, 2) == 1
    assert span_equal(f2, [0b011, 0b101], [0b101, 0b110], 3)
    assert not span_equal(f2, [0b001], [0b010], 3)


def _bilinear_reference(table, u, v):
    """XOR of table[i][j] over every pair of set bits, i of u and j of v."""
    acc = 0
    for i in range(u.bit_length()):
        for j in range(v.bit_length()):
            if (u >> i) & 1 and (v >> j) & 1:
                acc ^= table[i][j]
    return acc


def test_bilinear_matches_double_loop_on_random_tables():
    rng = random.Random(71)
    for n in range(1, 13):
        table = [[rng.getrandbits(n) for _ in range(n)] for _ in range(n)]
        pairs = [(0, 0), (0, (1 << n) - 1), ((1 << n) - 1, 0), ((1 << n) - 1, (1 << n) - 1)]
        pairs += [(rng.getrandbits(n), rng.getrandbits(n)) for _ in range(40)]
        for u, v in pairs:
            assert bilinear(table, u, v) == _bilinear_reference(table, u, v)


def test_bilinear_matches_double_loop_on_catalog_tables(algebras, reduced_algebras):
    rng = random.Random(72)
    for alg in list(algebras.values()) + list(reduced_algebras.values()):
        n = alg.dim
        for _ in range(20):
            u, v = rng.getrandbits(n), rng.getrandbits(n)
            for a, b in ((u, v), (0, v), (u, 0)):
                assert bilinear(alg.table, a, b) == _bilinear_reference(alg.table, a, b)


def _echelon_reference(f, vecs, ncols):
    """Nonzero rref rows of the matrix whose rows are vecs, read entry by entry."""
    entries = [vec_to_list(f, v, ncols) for v in vecs]
    if not entries:
        return ()
    R = FieldMatrix.from_rows(f, entries).rref()[0]
    return tuple(r for r in R.rows if r)


@pytest.mark.parametrize("k", range(1, 9))
def test_echelon_basis_matches_rref_reference(k):
    rng = random.Random(900 + k)
    f = Field(k)
    ncols = 5
    assert echelon_basis(f, [], ncols) == ()
    assert echelon_basis(f, [0, 0, 0], ncols) == ()
    for count in range(1, 8):
        vecs = [rng.getrandbits(ncols * k) for _ in range(count)]
        vecs.insert(rng.randrange(count + 1), 0)
        basis = echelon_basis(f, vecs, ncols)
        assert basis == _echelon_reference(f, vecs, ncols)
        assert all(basis)
        # canonical: a random invertible recombination of the rows spans the
        # same subspace and gives the same basis
        mixed = list(vecs)
        for _ in range(10):
            i, j = rng.sample(range(len(mixed)), 2)
            mixed[i] ^= vec_scale(f, mixed[j], rng.randrange(f.order), ncols)
        rng.shuffle(mixed)
        assert echelon_basis(f, mixed, ncols) == basis
