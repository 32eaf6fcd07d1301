"""Exact dense linear algebra over any field in the scalar tower.

Matrices are lists of row lists of field payloads.  There is one elimination
and one contraction.  :func:`echelon`, plain fraction-style Gaussian
elimination (no pivoting heuristics are needed since all arithmetic is
exact), is behind :func:`rank`, :func:`inverse`, :func:`kernel` and
:class:`Subspace`; it scales the pivot row, and subtracts it from the other
rows, only at the pivot row's nonzero positions, over every field.
:func:`mat_vec`, the one matrix-vector product, skips a pair whose matrix or
vector entry is zero and computes each output entry as one
:func:`multipoly.dot`, so over a polynomial ring a row's products accumulate
into one dict; it is behind :func:`mat_mul`.  Over Q the contraction is
integer-coded instead (:func:`_mat_mul_qq`): each row of A and each column
of B is put once over one denominator by the Q coding of
:mod:`albert.multipoly`, the one :class:`~albert.multipoly.Coding` that
``PolyRing`` and ``UPoly`` over Q use too; the sums run on ``int``s and
each output entry is one ``Fraction``; ``mat_vec`` over Q is its
one-column case.

Two pieces carry constant data over a field k to coordinates over an
extension ring S (a polynomial ring, k(t) or the base change of a quadratic
centre): :func:`mat_vec`, which lifts the nonzero entries through
:func:`scalars.lift`, and :class:`Subspace`, which maps between a subspace of
k^n and the coordinates of a chosen basis, over k or over S.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from operator import mul

from .errors import AlbertError, NotInvertible
from .multipoly import coding, dot
from .scalars import QQ, RationalField, lift


def identity(field, n):
    z, o = field.zero(), field.one()
    return [[o if i == j else z for j in range(n)] for i in range(n)]


def mat_mul(A, B):
    """A B.  Over Q, told by the type of B's entries, one integer-coded
    contraction (see :func:`_mat_mul_qq`); otherwise :func:`mat_vec` of A
    on each column of B."""
    if B and B[0] and type(B[0][0]) is Fraction:
        return _mat_mul_qq(A, list(zip(*B)))
    return transpose(map(partial(mat_vec, A), zip(*B)))


def mat_vec(A, v, S=None, k=None):
    """A v for A over k and v over k or over an extension ring S of k.

    A pair with a zero entry of A or of v is skipped; the other entries of
    A are lifted into S when S is not k.  ``k`` defaults to ``S``; without rings A and v share one ring.
    Each entry is one :func:`multipoly.dot` of a row with v.  Over Q, told
    by the ring or else by the type of v's payloads, the product is the
    one-column case of :func:`_mat_mul_qq`.
    """
    if k is None:
        k = S
    if isinstance(S, RationalField) if S is not None else v and type(v[0]) is Fraction:
        return [row[0] for row in _mat_mul_qq(A, [v])]
    lifted = S != k
    out = []
    for row in A:
        pairs = [(lift(S, k, c) if lifted else c, x) for c, x in zip(row, v) if c and x]
        if pairs:
            out.append(dot(pairs))
        else:
            out.append(S.zero() if S is not None else row[0] * v[0])
    return out


def _mat_mul_qq(A, cols):
    """A times the vectors ``cols`` over Q, as rows of A's length.  Each row
    of A and each column is put once over one denominator by the Q
    coding's ``common``; the sums run on ``int``s and each entry is one
    ``Fraction``."""
    qq = coding(QQ)
    cleared = [qq.common(list(map(qq.encode, col))) for col in cols]
    out = []
    for row in A:
        r, dr = qq.common(list(map(qq.encode, row)))
        out.append([Fraction(sum(map(mul, r, w)), dr * dw) for w, dw in cleared])
    return out


def mat_sub(A, B):
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_eq(A, B):
    """Whether A and B have the same shape and equal entries."""
    return len(A) == len(B) and all(list(ra) == list(rb) for ra, rb in zip(A, B))


def transpose(A):
    return [list(col) for col in zip(*A)]


def echelon(field, M, track=None):
    """In-place row echelon; returns pivot column list.  ``track`` rows get the
    same row operations (used for inversion).  The pivot row is scaled, and
    subtracted from the other rows, only at its nonzero positions; rows of M
    and ``track`` are updated in place."""
    rows = len(M)
    cols = len(M[0]) if rows else 0
    piv_cols = []
    r = 0
    for c in range(cols):
        pivot = None
        for i in range(r, rows):
            if not field.is_zero(M[i][c]):
                pivot = i
                break
        if pivot is None:
            continue
        if pivot != r:
            M[r], M[pivot] = M[pivot], M[r]
            if track is not None:
                track[r], track[pivot] = track[pivot], track[r]
        inv_p = field.inv(M[r][c])
        updates = [(M, _scale_support(M[r], inv_p))]
        if track is not None:
            updates.append((track, _scale_support(track[r], inv_p)))
        for i in range(rows):
            f = M[i][c]
            if i != r and not field.is_zero(f):
                for X, support in updates:
                    row = X[i]
                    for j, y in support:
                        row[j] = row[j] - f * y
        piv_cols.append(c)
        r += 1
        if r == rows:
            break
    return piv_cols


def _scale_support(row, c):
    """Multiply the nonzero entries of ``row`` by c in place; return them as
    (position, new value) pairs."""
    support = []
    for j, x in enumerate(row):
        if x:
            row[j] = x = x * c
            support.append((j, x))
    return support


def rank(field, A):
    """The rank of A, by :func:`echelon` on a copy."""
    return len(echelon(field, [list(row) for row in A]))


def inverse(field, A):
    n = len(A)
    M = [list(row) for row in A]
    inv = identity(field, n)
    piv = echelon(field, M, track=inv)
    if len(piv) != n:
        raise NotInvertible("singular matrix")
    return inv


def kernel(field, A):
    """Basis of the right null space, as a list of vectors."""
    rows, cols = len(A), len(A[0]) if A else 0
    M = [list(row) for row in A]
    piv = echelon(field, M)
    piv_set = set(piv)
    free = [c for c in range(cols) if c not in piv_set]
    basis = []
    z, o = field.zero(), field.one()
    for fc in free:
        v = [z] * cols
        v[fc] = o
        for r, c in enumerate(piv):
            v[c] = -M[r][fc]
        basis.append(v)
    return basis


class Subspace:
    """A subspace of k^n with a chosen basis, and its coordinates.

    Coordinates are read off an invertible minor of the basis: the pivot
    rows of the n x m matrix whose columns are the basis, and the inverse of
    that m x m minor.  :meth:`coords` and :meth:`vector` work over k or over
    any extension ring S of k.
    """

    def __init__(self, field, basis):
        m = len(basis)
        piv = echelon(field, [list(b) for b in basis])
        if len(piv) != m:
            raise AlbertError("subspace basis is rank deficient")
        self.field = field
        self.columns = transpose(basis)
        self.piv = piv
        self.pinv = inverse(field, [self.columns[p] for p in piv])

    def coords(self, S, v):
        """Coordinates of v in the basis; AlbertError if v is not in the span."""
        w = mat_vec(self.pinv, [v[i] for i in self.piv], S, self.field)
        if self.vector(S, w) != list(v):
            raise AlbertError("vector does not lie in the subspace")
        return w

    def vector(self, S, w):
        """The vector with coordinates w in the basis."""
        return mat_vec(self.columns, w, S, self.field)
