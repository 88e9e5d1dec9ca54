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

There is one multiplication rule, shift-and-reduce: multiply by x with a left
shift, and add the modulus back when the shift reaches x^k.  `Field.mul`
applies it to one pair of elements, and `inv(a)` is a^(2^k - 2) through
`power`; `FieldMatrix.row_images` applies it to every entry of a packed row
at once.

Vectors and matrix rows pack their entries k bits apiece into a single int.
Addition of packed rows is therefore always XOR (characteristic 2), and over
GF(2) a vector is an ordinary bitmask.

Over GF(2) the map v -> v*B on packed rows is linear for every k, so one
row-apply routine, `apply_images`, serves every matrix product: bit j*k + b of
a packed row picks the packed row x^b * B_j from `FieldMatrix.row_images`.
The GF(2) bilinear product `bilinear` of a structure-constant table reads the
support of its right factor once and, for each set bit i of the left factor,
XORs row i of the table over that support; it makes no `apply_images` call.

There is one elimination, `_rref_gf2`, which pivots on bits: each row is
reduced by the pivot bits it holds, with one back-substitution at the end.
`FieldMatrix.rref`, `kernel`, `kernel_chain` and `solve` run it on GF(2)
matrices only.  `inverse` and `rank` serve every k through the row images:
over GF(2) an n x n matrix M is the nk x nk matrix E of v -> v*M, whose rows
are `row_images()`, so rank(M) = rank(E) / k and row i of M^-1 is row i*k of
E^-1.
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


class Field:
    """The finite field GF(2^k); `mul` shifts and reduces by the frozen modulus.

    Elements are ints in 0..2^k-1; `mul`, `inv` and `pretty` refuse any
    other int with ValueError, so `power` does too for n != 0.  Two Field
    instances with the same k are interchangeable.
    """

    __slots__ = ("k", "modulus", "order", "mask")

    def __init__(self, k: int) -> None:
        if k not in IRREDUCIBLE:
            raise ValueError(f"unsupported extension degree k={k}; must be in 1..8")
        self.k = k
        self.modulus = IRREDUCIBLE[k]
        self.order = 1 << k
        self.mask = self.order - 1

    # -- element arithmetic (ints in [0, 2^k)) --

    def mul(self, a: int, b: int) -> int:
        """Carry-less product of a and b reduced mod the modulus: a is
        multiplied by x once per bit of b, and the modulus is added back
        whenever the shift reaches x^k."""
        if (a | b) >> self.k:
            raise ValueError(f"operands {a} and {b} are not both elements of {self!r}")
        p = 0
        top = self.order
        while b:
            if b & 1:
                p ^= a
            a <<= 1
            if a & top:
                a ^= self.modulus
            b >>= 1
        return p

    def inv(self, a: int) -> int:
        """a^(2^k - 2), the inverse of a nonzero a."""
        if a == 0:
            raise ZeroDivisionError("0 has no inverse in GF(2^k)")
        if a >> self.k:
            raise ValueError(f"{a} is not an element of {self!r}")
        return self.power(a, self.order - 2)

    def power(self, a: int, n: int) -> int:
        """a^n, read through `mul`; a^0 is 1 without reading a."""
        if n < 0:
            return self.power(self.inv(a), -n)
        r = 1
        while n:
            if n & 1:
                r = self.mul(r, a)
            a = self.mul(a, a)
            n >>= 1
        return r

    def nonzero(self) -> range:
        return range(1, self.order)

    def pretty(self, bits: int) -> str:
        """Pretty name of an element; GF(4) uses {0, 1, w, w+1}."""
        if bits >> self.k:
            raise ValueError(f"{bits} is not an element of {self!r}")
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
    """c times the vector v of n entries; a v with bits at or above n·k is
    refused, whatever c is."""
    if v >> (n * field.k):
        raise ValueError(f"{v} is not a vector of {n} entries over {field!r}")
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
        """Reduced row-echelon form of a GF(2) matrix and the pivot columns,
        eliminating the columns in ascending order, or in descending order
        when reverse.

        A row's pivot is its lowest set bit (its highest when reverse).  Each
        row is reduced by the pivot bits it holds and, if anything is left,
        becomes a pivot row; one newest-first pass then clears the later
        pivots from the earlier rows.  The pivot rows come out in pivot
        order, followed by zero rows.  A row with a bit at or above ncols is a
        ValueError, and so is a matrix over GF(2^k) with k > 1: only
        `inverse` and `rank` serve those.
        """
        f = self.field
        if f.k != 1:
            raise ValueError(f"rref, kernel and solve need a GF(2) matrix, not one over {f!r}")
        rows, pivots = _rref_gf2(self.rows, self.ncols, reverse)
        rows += [0] * (self.nrows - len(rows))
        return FieldMatrix(f, self.nrows, self.ncols, rows), pivots

    def _check_width(self) -> None:
        """Reject a packed row with a bit at or above ncols entries, naming
        the row; the row images and [E | I] would read such bits as columns."""
        width = self.ncols * self.field.k
        if self.rows and max(self.rows) >> width:
            i = next(i for i, r in enumerate(self.rows) if r >> width)
            raise ValueError(f"row {i} has a bit at or above ncols={self.ncols}")

    def rank(self) -> int:
        """rank(M) = rank(E) / k, where E is the GF(2) matrix whose rows are
        `row_images()`; for k = 1, E is M."""
        self._check_width()
        k = self.field.k
        return len(_rref_gf2(self.row_images(), self.ncols * k, False)[1]) // k

    def kernel(self) -> tuple[int, ...]:
        """Basis of the right kernel of a GF(2) matrix in (canonical) reduced
        echelon form.

        `rref(reverse=True)` eliminates the columns from last to first, which
        leaves each pivot row with bits only at its pivot and at free columns
        below it, so free column c gives e_c plus the pivot columns above c
        whose rows hold bit c.  They are filled by one walk over the set bits
        of each pivot row.  Returned as masks of length ncols; empty tuple
        for injective maps.  Nothing is asserted here: rank + nullity ==
        ncols holds by construction, since the free columns are those without
        a pivot.  The tests check M v = 0 for every basis vector v.
        """
        R, pivots = self.rref(reverse=True)
        n = self.ncols
        vecs = [1 << c for c in range(n)]
        for row, pc in zip(R.rows, pivots):
            bit = 1 << pc
            rest = row ^ bit
            while rest:
                low = rest & -rest
                vecs[low.bit_length() - 1] |= bit
                rest ^= low
        return tuple(vecs[c] for c in vec_support(((1 << n) - 1) ^ mask_from_support(pivots)))

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
            raise ValueError("kernel_chain needs a square matrix")
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
        """One solution x of M x = b over GF(2); raises NoSolution if
        inconsistent."""
        n = self.ncols
        rows = [r | ((b >> i) & 1) << n for i, r in enumerate(self.rows)]
        R, pivots = FieldMatrix(self.field, self.nrows, n + 1, rows).rref()
        if pivots and pivots[-1] == n:
            raise NoSolution("inconsistent linear system")
        x = 0
        for r, pc in zip(R.rows, pivots):
            x |= ((r >> n) & 1) << pc
        return x

    def inverse(self) -> "FieldMatrix":
        """M^-1 from the GF(2) elimination of [E | I], where E is the nk x nk
        matrix whose rows are `row_images()`: M is invertible iff E is, and
        row i of M^-1 is row i*k of E^-1.  Raises NoSolution for a singular
        or non-square M."""
        if self.nrows != self.ncols:
            raise NoSolution("only square matrices are invertible")
        self._check_width()
        k = self.field.k
        m = self.ncols * k
        rows, pivots = _rref_gf2(
            [r | 1 << (m + i) for i, r in enumerate(self.row_images())], 2 * m, False
        )
        if pivots != tuple(range(m)):
            raise NoSolution("matrix is singular")
        return FieldMatrix(self.field, self.nrows, self.ncols, (r >> m for r in rows[::k]))

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


def echelon_basis(vecs, ncols: int) -> tuple[int, ...]:
    """Reduced row-echelon basis of the span of GF(2) masks; () for zero.

    It is canonical: two lists span one subspace iff their bases are equal.
    """
    return tuple(_rref_gf2(vecs, ncols, False)[0])


def span_equal(vecs_a, vecs_b, ncols: int) -> bool:
    """Whether two lists of GF(2) masks span the same subspace."""
    return echelon_basis(vecs_a, ncols) == echelon_basis(vecs_b, ncols)
