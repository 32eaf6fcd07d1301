"""Exact dense linear algebra over any field in the scalar tower.

Matrices are lists of row lists of field payloads.  Everything is plain
fraction-style Gaussian elimination; no pivoting heuristics are needed since
all arithmetic is exact.
"""

from __future__ import annotations

from .errors import NotInvertible


def identity(field, n):
    z, o = field.zero(), field.one()
    return [[o if i == j else z for j in range(n)] for i in range(n)]


def zeros(field, rows, cols):
    z = field.zero()
    return [[z for _ in range(cols)] for _ in range(rows)]


def mat_mul(A, B):
    n, m, p = len(A), len(B), len(B[0])
    out = []
    for i in range(n):
        Ai = A[i]
        row = []
        for j in range(p):
            acc = Ai[0] * B[0][j]
            for k in range(1, m):
                acc = acc + Ai[k] * B[k][j]
            row.append(acc)
        out.append(row)
    return out


def mat_vec(A, v):
    out = []
    for row in A:
        acc = row[0] * v[0]
        for k in range(1, len(v)):
            acc = acc + row[k] * v[k]
        out.append(acc)
    return out


def mat_sub(A, B):
    return [[a - b for a, b in zip(ra, rb)] for ra, rb in zip(A, B)]


def mat_eq(A, B):
    return all(a == b for ra, rb in zip(A, B) for a, b in zip(ra, rb))


def transpose(A):
    return [list(col) for col in zip(*A)]


def echelon(field, M, track=None):
    """In-place row echelon; returns pivot column list.  ``track`` rows get the
    same row operations (used for inversion and solving)."""
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
        M[r] = [x * inv_p for x in M[r]]
        if track is not None:
            track[r] = [x * inv_p for x in track[r]]
        for i in range(rows):
            if i != r and not field.is_zero(M[i][c]):
                f = M[i][c]
                M[i] = [x - f * y for x, y in zip(M[i], M[r])]
                if track is not None:
                    track[i] = [x - f * y for x, y in zip(track[i], track[r])]
        piv_cols.append(c)
        r += 1
        if r == rows:
            break
    return piv_cols


def rank(field, A):
    M = [list(row) for row in A]
    return len(echelon(field, M))


def det(field, A):
    n = len(A)
    M = [list(row) for row in A]
    sign = field.one()
    acc = field.one()
    for c in range(n):
        pivot = None
        for i in range(c, n):
            if not field.is_zero(M[i][c]):
                pivot = i
                break
        if pivot is None:
            return field.zero()
        if pivot != c:
            M[c], M[pivot] = M[pivot], M[c]
            sign = -sign
        acc = acc * M[c][c]
        inv_p = field.inv(M[c][c])
        for i in range(c + 1, n):
            if not field.is_zero(M[i][c]):
                f = M[i][c] * inv_p
                M[i] = [x - f * y for x, y in zip(M[i], M[c])]
    return sign * acc


def inverse(field, A):
    n = len(A)
    M = [list(row) for row in A]
    inv = identity(field, n)
    piv = echelon(field, M, track=inv)
    if len(piv) != n:
        raise NotInvertible("singular matrix")
    return inv


def solve(field, A, b):
    """One solution of Ax = b, or None if inconsistent."""
    rows, cols = len(A), len(A[0])
    M = [list(A[i]) + [b[i]] for i in range(rows)]
    piv = echelon(field, M)
    z = field.zero()
    x = [z] * cols
    for r, c in enumerate(piv):
        if c == cols:
            return None
        x[c] = M[r][cols]
    if cols in piv:
        return None
    # consistency of zero rows
    for r in range(len(piv), rows):
        if not field.is_zero(M[r][cols]):
            return None
    return x


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


def row_space_basis(field, vectors):
    """Echelonized basis of the span of ``vectors``; rows are canonical."""
    if not vectors:
        return []
    M = [list(v) for v in vectors]
    piv = echelon(field, M)
    return [M[r] for r in range(len(piv))]


def in_span(field, basis, v):
    """Whether v lies in the span of the (echelonized or not) basis rows."""
    if not basis:
        return all(field.is_zero(x) for x in v)
    M = transpose([list(b) for b in basis])
    return solve(field, M, list(v)) is not None
