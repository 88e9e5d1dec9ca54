"""Exact arithmetic in GF(2^k) for k <= 8 and dense exact linear algebra over it.

Field elements are ints in [0, 2^k) whose binary digits are the coefficients
of a polynomial over GF(2); arithmetic is done modulo a fixed irreducible
polynomial per degree:

    k=1 : x                    -> 0b10        = 2
    k=2 : x^2 + x + 1          -> 0b111       = 7
    k=3 : x^3 + x + 1          -> 0b1011      = 11
    k=4 : x^4 + x + 1          -> 0b10011     = 19
    k=5 : x^5 + x^2 + 1        -> 0b100101    = 37
    k=6 : x^6 + x + 1          -> 0b1000011   = 67
    k=7 : x^7 + x^3 + 1        -> 0b10001001  = 137
    k=8 : x^8 + x^4 + x^3 + x + 1 -> 0b100011011 = 283

The choice is frozen so that all reports are bit-exact and reproducible.

Vectors and matrix rows pack their entries k bits apiece into a single int.
Addition of packed rows is therefore always XOR (characteristic 2), and over
GF(2) a vector is an ordinary bitmask.

Over GF(2) the map v -> v*B on packed rows is linear for every k, so one
row-apply routine, `apply_images`, serves every matrix product: bit j*k + b of
a packed row picks the packed row x^b * B_j from `FieldMatrix.row_images`.
The GF(2) bilinear product `bilinear` of a structure-constant table reads the
support of its right factor once and, for each set bit i of the left factor,
XORs row i of the table over that support; it makes no `apply_images` call.

Over GF(2), `FieldMatrix.rref` pivots on bits: each row is reduced by the
pivot bits it holds, with one back-substitution at the end.  The column loop,
which finds a pivot column by column and scales rows entry by entry, serves
only k > 1.
"""

from __future__ import annotations

from collections.abc import Iterator

IRREDUCIBLE = {
    1: 0b10,
    2: 0b111,
    3: 0b1011,
    4: 0b10011,
    5: 0b100101,
    6: 0b1000011,
    7: 0b10001001,
    8: 0b100011011,
}

_GF4_NAMES = ("0", "1", "w", "w+1")


class NoSolution(ValueError):
    """Raised when a linear system is inconsistent or a matrix is singular."""


def _mul_raw(a: int, b: int, k: int, modulus: int) -> int:
    """Carry-less multiply mod the irreducible polynomial, without tables."""
    p = 0
    top = 1 << k
    while b:
        if b & 1:
            p ^= a
        a <<= 1
        if a & top:
            a ^= modulus
        b >>= 1
    return p


class Field:
    """The finite field GF(2^k), with log/antilog multiplication tables.

    Two Field instances with the same k are interchangeable.
    """

    __slots__ = ("k", "modulus", "order", "mask", "generator", "_exp", "_log")

    def __init__(self, k: int) -> None:
        if k not in IRREDUCIBLE:
            raise ValueError(f"unsupported extension degree k={k}; must be in 1..8")
        self.k = k
        self.modulus = IRREDUCIBLE[k]
        self.order = 1 << k
        self.mask = self.order - 1
        self.generator = self._find_generator()
        # log/antilog tables; exp is doubled so mul never needs a reduction.
        n = self.order - 1
        self._exp = [1] * (2 * max(n, 1))
        self._log = [0] * self.order
        x = 1
        for i in range(n):
            self._exp[i] = x
            self._exp[i + n] = x
            self._log[x] = i
            x = _mul_raw(x, self.generator, k, self.modulus)
        if x != 1:
            raise AssertionError("generator does not have full multiplicative order")

    def _find_generator(self) -> int:
        n = self.order - 1
        if n == 1:
            return 1
        for g in range(2, self.order):
            x = g
            order = 1
            while x != 1:
                x = _mul_raw(x, g, self.k, self.modulus)
                order += 1
            if order == n:
                return g
        raise AssertionError("no multiplicative generator found")

    # -- element arithmetic (ints in [0, 2^k)) --

    @staticmethod
    def add(a: int, b: int) -> int:
        return a ^ b

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no inverse in GF(2^k)")
        n = self.order - 1
        return self._exp[(n - self._log[a]) % n]

    def power(self, a: int, n: int) -> int:
        if n < 0:
            return self.power(self.inv(a), -n)
        r = 1
        while n:
            if n & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            n >>= 1
        return r

    def elements(self) -> range:
        return range(self.order)

    def nonzero(self) -> range:
        return range(1, self.order)

    def pretty(self, bits: int) -> str:
        """Pretty name of an element; GF(4) uses {0, 1, w, w+1}."""
        if self.k == 2:
            return _GF4_NAMES[bits]
        return str(bits)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Field) and other.k == self.k

    def __hash__(self) -> int:
        return hash(("Field", self.k))

    def __repr__(self) -> str:
        return f"GF({self.order})"


# -- packed vectors ----------------------------------------------------------
#
# A vector of length n over GF(2^k) is an int whose entry j occupies bits
# [j*k, (j+1)*k).  Over GF(2) this is the usual bitmask, and matsuo/decomp
# use such masks directly as algebra elements.


def vec_entry(field: Field, v: int, j: int) -> int:
    return (v >> (j * field.k)) & field.mask


def vec_from_list(field: Field, coeffs) -> int:
    v = 0
    for j, c in enumerate(coeffs):
        if not 0 <= c < field.order:
            raise ValueError(f"coefficient {c} out of range for {field!r}")
        v |= c << (j * field.k)
    return v


def vec_to_list(field: Field, v: int, n: int) -> list[int]:
    return [vec_entry(field, v, j) for j in range(n)]


def vec_scale(field: Field, v: int, c: int, n: int) -> int:
    if c == 0:
        return 0
    if c == 1:
        return v
    out = 0
    k = field.k
    for j in range(n):
        e = (v >> (j * k)) & field.mask
        if e:
            out |= field.mul(e, c) << (j * k)
    return out


def apply_images(images, row: int) -> int:
    """XOR of images[p] over the set bits p of row, walking the low bits."""
    out = 0
    while row:
        low = row & -row
        out ^= images[low.bit_length() - 1]
        row ^= low
    return out


def bilinear(table, u: int, v: int) -> int:
    """XOR of table[i][j] over the set bits i of u and j of v: the GF(2)
    bilinear product with structure constants table.  The support of v is
    read once and walked for every set bit of u."""
    js = vec_support(v)
    out = 0
    while u:
        low = u & -u
        row = table[low.bit_length() - 1]
        for j in js:
            out ^= row[j]
        u ^= low
    return out


def vec_support(v: int) -> list[int]:
    """Indices of the set bits of a GF(2) mask, ascending."""
    out = []
    while v:
        low = v & -v
        out.append(low.bit_length() - 1)
        v ^= low
    return out


def mask_from_support(indices) -> int:
    m = 0
    for i in indices:
        m |= 1 << i
    return m


def lift_vec(field: Field, mask: int, n: int) -> int:
    """Reinterpret a GF(2) mask of length n as a 0/1 vector over GF(2^k)."""
    if field.k == 1:
        return mask
    v = 0
    for j in range(n):
        if (mask >> j) & 1:
            v |= 1 << (j * field.k)
    return v


# -- matrices ----------------------------------------------------------------


def _rref_gf2(rows, ncols: int, reverse: bool) -> tuple[list[int], tuple[int, ...]]:
    """The nonzero rows of the GF(2) RREF of rows, in pivot order, and the
    pivots; a row's pivot is its lowest set bit, or its highest when reverse."""
    prow = [0] * ncols  # prow[c]: the row whose pivot is column c
    pmask = 0
    found = []
    for i, x in enumerate(rows):
        if x >> ncols:
            raise ValueError(f"row {i} has a bit at or above ncols={ncols}")
        hit = x & pmask
        while hit:
            x ^= prow[(hit.bit_length() if reverse else (hit & -hit).bit_length()) - 1]
            hit = x & pmask
        if x:
            c = (x.bit_length() if reverse else (x & -x).bit_length()) - 1
            prow[c] = x
            pmask |= 1 << c
            found.append(c)
    # Each row holds no pivot bit older than its own, and the newer rows are
    # already clear of every pivot but their own when it is reached.
    newer = 0
    for c in reversed(found):
        x = prow[c]
        hit = x & newer
        while hit:
            low = hit & -hit
            x ^= prow[low.bit_length() - 1]
            hit ^= low
        prow[c] = x
        newer |= 1 << c
    pivots = tuple(sorted(found, reverse=reverse))
    return [prow[c] for c in pivots], pivots


class FieldMatrix:
    """Dense matrix over GF(2^k); immutable, rows stored as packed ints."""

    __slots__ = ("field", "nrows", "ncols", "rows")

    def __init__(self, field: Field, nrows: int, ncols: int, rows) -> None:
        self.field = field
        self.nrows = nrows
        self.ncols = ncols
        self.rows = tuple(rows)
        if len(self.rows) != nrows:
            raise ValueError("row count mismatch")

    # -- constructors --

    @classmethod
    def from_rows(cls, field: Field, entries) -> "FieldMatrix":
        entries = [list(r) for r in entries]
        nrows = len(entries)
        ncols = len(entries[0]) if entries else 0
        if any(len(r) != ncols for r in entries):
            raise ValueError("ragged rows")
        return cls(field, nrows, ncols, (vec_from_list(field, r) for r in entries))

    @classmethod
    def from_cols(cls, field: Field, nrows: int, cols) -> "FieldMatrix":
        # Bit p of a column is bit p % k of its entry in row p // k; walk the
        # set bits only.
        cols = list(cols)
        k = field.k
        rows = [0] * nrows
        keep = (1 << (nrows * k)) - 1
        for j, c in enumerate(cols):
            base = j * k
            c &= keep
            while c:
                low = c & -c
                p = low.bit_length() - 1
                rows[p // k] |= 1 << (base + p % k)
                c ^= low
        return cls(field, nrows, len(cols), rows)

    @classmethod
    def identity(cls, field: Field, n: int) -> "FieldMatrix":
        k = field.k
        return cls(field, n, n, (1 << (i * k) for i in range(n)))

    @classmethod
    def zeros(cls, field: Field, nrows: int, ncols: int) -> "FieldMatrix":
        return cls(field, nrows, ncols, (0,) * nrows)

    # -- access --

    def entry(self, i: int, j: int) -> int:
        return vec_entry(self.field, self.rows[i], j)

    def col(self, j: int) -> int:
        """Column j as a packed vector of length nrows."""
        k = self.field.k
        sh = j * k
        mask = self.field.mask
        v = 0
        for i, r in enumerate(self.rows):
            v |= ((r >> sh) & mask) << (i * k)
        return v

    # -- arithmetic --

    def _check_same(self, other: "FieldMatrix") -> None:
        if not isinstance(other, FieldMatrix):
            raise TypeError("expected a FieldMatrix")
        if other.field.k != self.field.k:
            raise ValueError("mixed fields")

    def __add__(self, other: "FieldMatrix") -> "FieldMatrix":
        self._check_same(other)
        if (other.nrows, other.ncols) != (self.nrows, self.ncols):
            raise ValueError("dimension mismatch in matrix addition")
        return FieldMatrix(
            self.field, self.nrows, self.ncols,
            (a ^ b for a, b in zip(self.rows, other.rows)),
        )

    def row_images(self) -> tuple[int, ...]:
        """For bit j*k + b of a packed row, the packed row x^b * (row j).

        Row i of A*B is `apply_images(B.row_images(), A.rows[i])`.  Each
        multiply-by-x step works on all lanes of a row at once: the top bit of
        every lane is cleared, the row shifted by one, and the reduction
        polynomial added back in exactly the lanes whose top bit was set, so
        no lane spills into the next.
        """
        f = self.field
        k = f.k
        if k == 1:
            return self.rows
        hi = (((1 << (self.ncols * k)) - 1) // f.mask) << (k - 1)  # top bit of every lane
        red = f.modulus & f.mask
        out = []
        for r in self.rows:
            out.append(r)
            for _ in range(k - 1):
                h = r & hi
                r = ((r ^ h) << 1) ^ ((h >> (k - 1)) * red)
                out.append(r)
        return tuple(out)

    def __mul__(self, other: "FieldMatrix") -> "FieldMatrix":
        self._check_same(other)
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch in matrix product")
        images = other.row_images()
        return FieldMatrix(
            self.field, self.nrows, other.ncols,
            [apply_images(images, r) for r in self.rows],
        )

    def matvec(self, v: int) -> int:
        """Apply to a packed column vector of length ncols; for k > 1 this is
        the product with v taken as an ncols x 1 matrix."""
        f = self.field
        k = f.k
        out = 0
        if k == 1:
            for i, r in enumerate(self.rows):
                if (r & v).bit_count() & 1:
                    out |= 1 << i
            return out
        images = FieldMatrix(f, self.ncols, 1, vec_to_list(f, v, self.ncols)).row_images()
        for i, r in enumerate(self.rows):
            out |= apply_images(images, r) << (i * k)
        return out

    def __pow__(self, n: int) -> "FieldMatrix":
        if self.nrows != self.ncols:
            raise ValueError("matrix power needs a square matrix")
        if n < 0:
            raise ValueError("negative matrix powers are not supported")
        r = FieldMatrix.identity(self.field, self.nrows)
        base = self
        while n:
            if n & 1:
                r = r * base
            base = base * base
            n >>= 1
        return r

    # -- elimination --

    def rref(self, reverse: bool = False) -> tuple["FieldMatrix", tuple[int, ...]]:
        """Reduced row-echelon form and the pivot columns, eliminating the
        columns in ascending order, or in descending order when reverse.

        Over GF(2) a row's pivot is its lowest set bit (its highest when
        reverse).  Each row is reduced by the pivot bits it holds and, if
        anything is left, becomes a pivot row; one newest-first pass then
        clears the later pivots from the earlier rows.  The pivot rows come
        out in pivot order, followed by zero rows.  The RREF of a row space
        is unique for a given column order, so this is the form the column
        loop used for k > 1 would give.  A GF(2) row with a bit at or above
        ncols is a ValueError.
        """
        f = self.field
        if f.k == 1:
            rows, pivots = _rref_gf2(self.rows, self.ncols, reverse)
            rows += [0] * (self.nrows - len(rows))
            return FieldMatrix(f, self.nrows, self.ncols, rows), pivots
        k = f.k
        mask = f.mask
        rows = list(self.rows)
        pivots = []
        r = 0
        for col in range(self.ncols - 1, -1, -1) if reverse else range(self.ncols):
            sh = col * k
            pivot = None
            for i in range(r, len(rows)):
                if (rows[i] >> sh) & mask:
                    pivot = i
                    break
            if pivot is None:
                continue
            rows[r], rows[pivot] = rows[pivot], rows[r]
            p = (rows[r] >> sh) & mask
            if p != 1:
                rows[r] = vec_scale(f, rows[r], f.inv(p), self.ncols)
            prow = rows[r]
            for i in range(len(rows)):
                if i == r:
                    continue
                e = (rows[i] >> sh) & mask
                if e:
                    rows[i] ^= vec_scale(f, prow, e, self.ncols)
            pivots.append(col)
            r += 1
            if r == len(rows):
                break
        return FieldMatrix(f, self.nrows, self.ncols, rows), tuple(pivots)

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel(self) -> tuple[int, ...]:
        """Basis of the right kernel in (canonical) reduced echelon form.

        `rref(reverse=True)` eliminates the columns from last to first, which
        leaves each pivot row with entries only at its pivot and at free
        columns below it, so free column c gives e_c plus entries at pivot
        columns above c.  Over GF(2) the free-column vectors are filled by
        one walk over the set bits of each pivot row.  Returned as packed
        vectors of length ncols; empty tuple for injective maps.  Checks
        rank + nullity == ncols.
        """
        R, pivots = self.rref(reverse=True)
        f = self.field
        k = f.k
        n = self.ncols
        free = vec_support(((1 << n) - 1) ^ mask_from_support(pivots))
        if k == 1:
            vecs = [1 << c for c in range(n)]
            for row, pc in zip(R.rows, pivots):
                bit = 1 << pc
                rest = row ^ bit
                while rest:
                    low = rest & -rest
                    vecs[low.bit_length() - 1] |= bit
                    rest ^= low
            basis = [vecs[c] for c in free]
        else:
            mask = f.mask
            pivot_rows = tuple(zip(R.rows, pivots))
            basis = []
            for fc in free:
                sh = fc * k
                v = 1 << sh
                for row, pc in pivot_rows:
                    e = (row >> sh) & mask
                    if e:
                        v |= e << (pc * k)
                basis.append(v)
        return tuple(basis)

    def kernel_chain(self) -> Iterator[tuple[int, ...]]:
        """Yield the bases of ker(M), ker(M^2), ... while the kernel grows.

        ker(M^k) lies in ker(M^(k+1)), and once two successive kernels are
        equal every later one is equal too.  So the chain stops at the first
        k with ker(M^k) = ker(M^(k+1)), or at once when ker(M) is zero (M is
        invertible) or everything; the last basis yielded is ker(M^j) for
        every j >= its power, and at most ncols bases are yielded.  Each
        basis after the first costs one product and one kernel.
        """
        if self.nrows != self.ncols:
            raise ValueError("iterated kernel needs a square matrix")
        basis = self.kernel()
        yield basis
        power = self
        while 0 < len(basis) < self.ncols:
            power = power * self
            grown = power.kernel()
            if len(grown) == len(basis):
                return
            basis = grown
            yield basis

    def solve(self, b: int) -> int:
        """One solution x of M x = b; raises NoSolution if inconsistent."""
        f = self.field
        k = f.k
        aug_col = self.ncols
        rows = [r | (vec_entry(f, b, i) << (aug_col * k)) for i, r in enumerate(self.rows)]
        A = FieldMatrix(f, self.nrows, self.ncols + 1, rows)
        R, pivots = A.rref()
        if pivots and pivots[-1] == aug_col:
            raise NoSolution("inconsistent linear system")
        x = 0
        for r, pc in enumerate(pivots):
            e = R.entry(r, aug_col)
            if e:
                x |= e << (pc * k)
        return x

    def inverse(self) -> "FieldMatrix":
        if self.nrows != self.ncols:
            raise NoSolution("only square matrices are invertible")
        f = self.field
        k = f.k
        n = self.ncols
        rows = [r | (1 << ((n + i) * k)) for i, r in enumerate(self.rows)]
        A = FieldMatrix(f, n, 2 * n, rows)
        R, pivots = A.rref()
        if pivots[:n] != tuple(range(n)) or len(pivots) != n:
            raise NoSolution("matrix is singular")
        shift = n * k
        return FieldMatrix(f, n, n, (r >> shift for r in R.rows))

    def is_zero(self) -> bool:
        return all(r == 0 for r in self.rows)

    # -- identity / hashing --

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, FieldMatrix)
            and other.field.k == self.field.k
            and other.nrows == self.nrows
            and other.ncols == self.ncols
            and other.rows == self.rows
        )

    def __hash__(self) -> int:
        return hash((self.field.k, self.nrows, self.ncols, self.rows))

    def __repr__(self) -> str:
        f = self.field
        body = "; ".join(
            " ".join(f.pretty(self.entry(i, j)) for j in range(self.ncols))
            for i in range(self.nrows)
        )
        return f"FieldMatrix({f!r}, {self.nrows}x{self.ncols}: {body})"


def lift_matrix(field: Field, m: FieldMatrix) -> FieldMatrix:
    """Reinterpret a GF(2) matrix with 0/1 entries over a larger GF(2^k)."""
    if m.field.k != 1:
        raise ValueError("lift_matrix expects a GF(2) matrix")
    if field.k == 1:
        return m
    return FieldMatrix(
        field, m.nrows, m.ncols,
        (lift_vec(field, r, m.ncols) for r in m.rows),
    )


def echelon_basis(field: Field, vecs, ncols: int) -> tuple[int, ...]:
    """Reduced row-echelon basis of the span of packed vectors; () for zero.

    It is canonical: two lists span one subspace iff their bases are equal.
    """
    vecs = [v for v in vecs if v]
    if not vecs:
        return ()
    R = FieldMatrix(field, len(vecs), ncols, vecs).rref()[0]
    return tuple(r for r in R.rows if r)


def span_equal(field: Field, vecs_a, vecs_b, ncols: int) -> bool:
    """Whether two lists of packed vectors span the same subspace."""
    return echelon_basis(field, vecs_a, ncols) == echelon_basis(field, vecs_b, ncols)
