import random

import pytest

from matsuo2 import fischer, matsuo
from matsuo2.gf import (
    IRREDUCIBLE,
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
        for a in range(f.order):
            assert f.mul(1, a) == a


def test_gf8_associativity_exhaustive():
    f = Field(3)
    for a in range(f.order):
        for b in range(f.order):
            for c in range(f.order):
                assert f.mul(a, f.mul(b, c)) == f.mul(f.mul(a, b), c)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_field_axioms_exhaustive(k):
    f = Field(k)
    els = range(f.order)  # addition is XOR of the bit patterns
    for a in els:
        assert f.mul(a, 0) == 0
        for b in els:
            assert f.mul(a, b) == f.mul(b, a)
            assert f.mul(a, b) < f.order
            for c in els:
                assert f.mul(a, b ^ c) == f.mul(a, b) ^ f.mul(a, c)
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
    # some element has order 2^k - 1, so its powers are all the nonzero ones
    for k in (2, 3, 4, 8):
        f = Field(k)
        for g in f.nonzero():
            powers = [1]
            for _ in range(f.order - 2):
                powers.append(f.mul(powers[-1], g))
            if f.mul(powers[-1], g) == 1 and len(set(powers)) == f.order - 1:
                break
        else:
            pytest.fail(f"no element of order {f.order - 1} in {f!r}")
        assert sorted(powers) == list(f.nonzero())


def _clmul(a, b):
    """Schoolbook carry-less product of two GF(2) polynomials."""
    p = 0
    for i in range(b.bit_length()):
        if (b >> i) & 1:
            p ^= a << i
    return p


def _polymod(a, m):
    """Remainder of a on long division by m over GF(2)."""
    d = m.bit_length()
    while a.bit_length() >= d:
        a ^= m << (a.bit_length() - d)
    return a


@pytest.mark.parametrize("k", range(1, 9))
def test_modulus_is_irreducible(k):
    m = IRREDUCIBLE[k]
    assert m.bit_length() == k + 1
    # no polynomial of degree 1..k/2 divides it
    for d in range(2, 1 << (k // 2 + 1)):
        assert _polymod(m, d), (k, bin(d))


@pytest.mark.parametrize("k", range(1, 9))
def test_mul_matches_the_schoolbook_oracle(k):
    f = Field(k)
    m = IRREDUCIBLE[k]
    for a in range(f.order):
        for b in range(f.order):
            assert f.mul(a, b) == _polymod(_clmul(a, b), m), (k, a, b)
    for a in f.nonzero():
        assert f.mul(a, f.inv(a)) == 1


@pytest.mark.parametrize("call, args", [
    ("mul", (-1, 2)),
    ("mul", (4, 1)),
    ("inv", (-1,)),
    ("inv", (4,)),
    ("power", (-1, 1)),
    ("pretty", (-1,)),
    ("pretty", (4,)),
])
def test_out_of_range_operands_are_refused(call, args):
    # a negative operand must not be read as a list index from the end,
    # nor reach a shift loop that never ends
    f = Field(2)
    with pytest.raises(ValueError, match=r"not (both )?(an )?elements? of GF\(4\)") as info:
        getattr(f, call)(*args)
    for a in args[:2 if call == "mul" else 1]:
        assert str(a) in str(info.value)


@pytest.mark.parametrize("c", [0, 1, 2])
def test_vec_scale_refuses_bits_beyond_its_entries(c):
    # over GF(4) a vector of 2 entries has 4 bits; 0b111111 has a third
    # entry, which c = 1 kept and c = 2 dropped
    f = Field(2)
    with pytest.raises(ValueError, match=r"^63 is not a vector of 2 entries over GF\(4\)$"):
        vec_scale(f, 0b111111, c, 2)
    assert vec_scale(f, 0b1111, c, 2) == [0, 0b1111, 0b0101][c]  # w(w+1) = 1


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
    f = Field(1)
    for _ in range(25):
        n = rng.randrange(1, 7)
        m = FieldMatrix.from_rows(f, [[rng.randrange(2) for _ in range(n)] for _ in range(n)])
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
    f = Field(1)
    for _ in range(40):
        n = rng.randrange(1, 7)
        rows = [[rng.randrange(2) for _ in range(n)] for _ in range(n)]
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


def test_kernel_chain_rejects_a_non_square_matrix():
    m = FieldMatrix.zeros(Field(1), 2, 3)
    with pytest.raises(ValueError, match=r"^kernel_chain needs a square matrix$"):
        next(m.kernel_chain())


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


def test_rref_kernel_and_solve_need_gf2():
    f = Field(2)
    m = FieldMatrix.from_rows(f, [[2, 1], [1, 1]])
    calls = (m.rref, lambda: m.rref(reverse=True), m.kernel, lambda: next(m.kernel_chain()),
             lambda: m.solve(vec_from_list(f, [3, 2])))
    for call in calls:
        with pytest.raises(ValueError) as err:
            call()
        assert err.type is ValueError
        assert str(err.value) == "rref, kernel and solve need a GF(2) matrix, not one over GF(4)"
    # inverse and rank serve every GF(2^k)
    assert m.rank() == 2
    assert m * m.inverse() == FieldMatrix.identity(f, 2)


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


def _rref_textbook(m, reverse=False):
    """Gauss-Jordan elimination column by column in ascending order
    (descending when reverse): find the first row at or below the next pivot
    slot with a nonzero entry, swap it up, scale it to 1 and clear the column
    in every other row.  Over GF(2) the rows are packed ints and clearing is
    an XOR; over GF(2^k) they are entry lists read with `vec_entry`.
    Independent of `FieldMatrix.rref`; returns the rows as packed vectors and
    the pivots."""
    f = m.field
    cols = range(m.ncols - 1, -1, -1) if reverse else range(m.ncols)
    pivots = []
    if f.k == 1:
        rows = list(m.rows)
        for c in cols:
            bit = 1 << c
            r = len(pivots)
            p = next((i for i in range(r, len(rows)) if rows[i] & bit), None)
            if p is None:
                continue
            rows[r], rows[p] = rows[p], rows[r]
            prow = rows[r]
            for i, row in enumerate(rows):
                if i != r and row & bit:
                    rows[i] = row ^ prow
            pivots.append(c)
        return rows, tuple(pivots)
    rows = [[vec_entry(f, r, j) for j in range(m.ncols)] for r in m.rows]
    for c in cols:
        r = len(pivots)
        p = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if p is None:
            continue
        rows[r], rows[p] = rows[p], rows[r]
        inv = f.inv(rows[r][c])
        if inv != 1:
            rows[r] = [f.mul(inv, e) for e in rows[r]]
        prow = rows[r]
        for i, row in enumerate(rows):
            e = row[c]
            if i != r and e:
                if e == 1:
                    rows[i] = [a ^ b for a, b in zip(row, prow)]
                else:
                    rows[i] = [a ^ f.mul(e, b) for a, b in zip(row, prow)]
        pivots.append(c)
    return [vec_from_list(f, row) for row in rows], tuple(pivots)


def _echelon_textbook(f, vecs, ncols):
    """Nonzero rows of the textbook RREF of the matrix whose rows are vecs."""
    rows, _ = _rref_textbook(FieldMatrix(f, len(vecs), ncols, vecs))
    return tuple(r for r in rows if r)


def _kernel_reference(m, rref=None):
    """The textbook null-space basis, read off the ascending textbook RREF
    (free column c gives e_c minus its entries at the pivot columns), then
    put in reduced echelon form by the textbook elimination."""
    f = m.field
    rows, pivots = rref or _rref_textbook(m)
    basis = []
    for fc in range(m.ncols):
        if fc in pivots:
            continue
        v = 1 << (fc * f.k)
        for r, pc in enumerate(pivots):
            v |= vec_entry(f, rows[r], fc) << (pc * f.k)
        basis.append(v)
    return _echelon_textbook(f, basis, m.ncols)


def _check_against_textbook(m):
    """rref, rref(reverse=True), kernel, rank, echelon_basis and inverse of m
    against the textbook elimination."""
    n = m.ncols
    rows, pivots = _rref_textbook(m)
    R, got = m.rref()
    assert (R.nrows, R.ncols) == (m.nrows, n)
    assert (list(R.rows), got) == (rows, pivots)
    R, got = m.rref(reverse=True)
    assert (list(R.rows), got) == _rref_textbook(m, reverse=True)
    kernel = m.kernel()
    assert kernel == _kernel_reference(m, (rows, pivots))
    assert all(m.matvec(v) == 0 for v in kernel)
    assert m.rank() == len(pivots) == n - len(kernel)
    assert echelon_basis(m.rows, n) == tuple(r for r in rows if r)
    if m.nrows != n:
        return
    if len(pivots) < n:
        with pytest.raises(NoSolution):
            m.inverse()
        return
    assert m.inverse().rows == _inverse_textbook(m)


def _inverse_textbook(m):
    """The rows of the inverse of an invertible m: the right half of the
    textbook RREF of [M | I]."""
    n, k = m.ncols, m.field.k
    aug = FieldMatrix(m.field, n, 2 * n, [r | 1 << ((n + i) * k) for i, r in enumerate(m.rows)])
    return tuple(r >> (n * k) for r in _rref_textbook(aug)[0])


def test_gf2_elimination_matches_textbook_on_seeded_shapes():
    rng = random.Random(2402)
    f = Field(1)
    # (nrows, ncols, rank); rank None is a uniformly random matrix
    shapes = [(0, 0, 0), (0, 7, 0), (5, 0, 0), (1, 1, 0), (1, 1, 1), (6, 6, 0),
              (4, 81, 4), (3, 81, 2), (81, 5, 5), (81, 4, 3), (9, 9, 9), (9, 9, 5),
              (30, 30, 30), (30, 30, 17), (81, 81, 81), (81, 81, 60), (40, 81, None),
              (81, 40, None), (64, 64, None), (20, 81, 0)]
    for nrows, ncols, rank in shapes:
        for _ in range(3):
            if rank is None:
                m = FieldMatrix(f, nrows, ncols, [rng.getrandbits(ncols) for _ in range(nrows)])
            elif rank == 0:
                m = FieldMatrix.zeros(f, nrows, ncols)
            else:
                while True:  # a product of full-rank factors, so of rank exactly rank
                    a = FieldMatrix(f, nrows, rank, [rng.getrandbits(rank) for _ in range(nrows)])
                    b = FieldMatrix(f, rank, ncols, [rng.getrandbits(ncols) for _ in range(rank)])
                    if len(_rref_textbook(a)[1]) == len(_rref_textbook(b)[1]) == rank:
                        break
                m = a * b
            _check_against_textbook(m)


@pytest.mark.parametrize("name", fischer.CATALOG_NAMES)
def test_gf2_elimination_matches_textbook_on_ad_operators(name, algebras, reduced_algebras):
    for alg in (algebras[name], reduced_algebras[name]):
        one = FieldMatrix.identity(Field(1), alg.dim)
        for line in alg.space.lines:
            ad = matsuo.ad_matrix(alg, matsuo.line_nilpotent(alg, line))
            _check_against_textbook(ad)
            _check_against_textbook(ad + one)


def test_gf2_rref_rejects_a_bit_at_or_above_ncols():
    m = FieldMatrix(Field(1), 3, 4, [0b0011, 0b10100, 0b1000])
    for call in (m.rref, lambda: m.rref(reverse=True), m.kernel, m.rank):
        with pytest.raises(ValueError, match=r"^row 1 has a bit at or above ncols=4$"):
            call()
    # a zero row ahead of the bad one still counts: the caller's index is named
    with pytest.raises(ValueError, match=r"^row 1 has a bit at or above ncols=3$"):
        echelon_basis([0, 0b1000], 3)


@pytest.mark.parametrize("k", range(1, 9))
def test_rank_and_inverse_reject_a_bit_at_or_above_ncols(k):
    # bit 2k is past the last entry of a 2-column row, for every k
    for bad in (1 << 2 * k, 1 << 3 * k + 1):
        m = FieldMatrix(Field(k), 2, 2, [0, bad])
        for call in (m.rank, m.inverse):
            with pytest.raises(ValueError, match=r"^row 1 has a bit at or above ncols=2$"):
                call()


@pytest.mark.parametrize("k", range(1, 9))
def test_kernel_and_from_cols_match_entrywise_reference(k):
    rng = random.Random(700 + k)
    f = Field(k)
    for nrows, rank, ncols in ((4, 2, 6), (5, 5, 5), (3, 0, 4), (6, 3, 3), (1, 1, 7)):
        m = _random_matrix(rng, f, nrows, rank) * _random_matrix(rng, f, rank, ncols)
        if k == 1:
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
    """The kernel over GF(2); for every k, rank + the textbook nullity is ncols."""
    rng = random.Random(1100 + k)
    f = Field(k)
    assert FieldMatrix.zeros(f, 2, 0).rank() == 0
    for _ in range(150):
        nrows, ncols = rng.randrange(1, 8), rng.randrange(1, 9)
        rank = rng.randrange(min(nrows, ncols) + 1)
        m = FieldMatrix.zeros(f, nrows, ncols)
        if rank:
            m = _random_matrix(rng, f, nrows, rank) * _random_matrix(rng, f, rank, ncols)
        kernel = _kernel_reference(m)
        assert m.rank() + len(kernel) == ncols
        if k == 1:
            assert m.kernel() == kernel


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
    f = Field(1)
    m = FieldMatrix.from_rows(f, [[1, 0, 1], [0, 1, 1], [1, 1, 0]])
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
    assert span_equal([0b011, 0b101], [0b101, 0b110], 3)
    assert not span_equal([0b001], [0b010], 3)


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


@pytest.mark.parametrize("k", range(1, 9))
def test_echelon_basis_matches_rref_reference(k):
    """echelon_basis of the row images of random rows over GF(2^k), which are
    the rows themselves for k = 1: the textbook GF(2) basis, k times the
    textbook rank over GF(2^k) long, and canonical."""
    rng = random.Random(900 + k)
    f = Field(k)
    ncols = 5
    assert echelon_basis([], ncols) == ()
    assert echelon_basis([0, 0, 0], ncols) == ()
    for count in range(1, 8):
        vecs = [rng.getrandbits(ncols * k) for _ in range(count)]
        vecs.insert(rng.randrange(count + 1), 0)
        m = FieldMatrix(f, len(vecs), ncols, vecs)
        images = m.row_images()
        basis = echelon_basis(images, ncols * k)
        assert basis == _echelon_textbook(Field(1), images, ncols * k)
        assert len(basis) == k * len(_rref_textbook(m)[1])
        assert all(basis)
        # canonical: a random invertible recombination of the rows over
        # GF(2^k) spans the same subspace and gives the same basis
        mixed = list(vecs)
        for _ in range(10):
            i, j = rng.sample(range(len(mixed)), 2)
            mixed[i] ^= vec_scale(f, mixed[j], rng.randrange(f.order), ncols)
        rng.shuffle(mixed)
        mixed_images = FieldMatrix(f, len(mixed), ncols, mixed).row_images()
        assert echelon_basis(mixed_images, ncols * k) == basis


@pytest.mark.parametrize("k", range(1, 9))
def test_inverse_and_rank_match_textbook(k):
    """inverse() and rank() eliminate the row images over GF(2); the textbook
    eliminates entry lists of M, and of [M | I], over GF(2^k).  Each matrix
    is a product of factors, redrawn until its rank is exactly the rank
    asked for, so every square shape is met both invertible and singular."""
    rng = random.Random(1300 + k)
    f = Field(k)
    shapes = [(n, n, r) for n in range(7) for r in sorted({n, n // 2, max(n - 1, 0)})]
    shapes += [(2, 5, 2), (5, 2, 2), (3, 6, 1), (6, 4, 3), (1, 4, 0), (4, 1, 1)]
    for nrows, ncols, rank in shapes:
        for _ in range(3):
            m = FieldMatrix.zeros(f, nrows, ncols)
            while rank:
                m = _random_matrix(rng, f, nrows, rank) * _random_matrix(rng, f, rank, ncols)
                if len(_rref_textbook(m)[1]) == rank:
                    break
            assert m.rank() == rank
            if nrows != ncols or rank < ncols:
                with pytest.raises(NoSolution):
                    m.inverse()
                continue
            inv = m.inverse()
            assert inv.rows == _inverse_textbook(m)
            assert (inv.nrows, inv.ncols) == (nrows, ncols)
