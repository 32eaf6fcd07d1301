"""The generic cubic-norm-structure engine.

A :class:`CubicJordan` is a carrier of finite dimension n over a field k with
a distinguished base point c, a cubic norm evaluator N and a quadratic adjoint
evaluator #.  Both evaluators are *programs*: they accept an explicit scalar
ring S extending k together with coordinate tuples over S, and are therefore
usable numerically, symbolically over polynomial rings (the universal case
that decides identity-type axioms in every base change), and along
one-parameter families over rational function fields.

Everything else is derived from (N, #, c):

* the linear trace T(x): the e1 coefficient of N(c + e1*x) over the
  two-infinitesimal extension ``BiDualRing``;
* the bilinear trace T(x,y) = T(x)T(y) - D2N(c; x, y), where D2N is the mixed
  second directional derivative of N at c read off the two-infinitesimal
  extension; this closed form is the polynomial unfolding of the logarithmic
  second derivative, using N(c) = 1, and is validated against independent
  oracles in the test suite;
* the cross product x X y = (x+y)^# - x^# - y^#;
* the U-operators U_x(y) = T(x,y)x - x^# X y.

Directional derivatives are always taken with nilpotent infinitesimals over
the exact scalar ring, never with limits, so every characteristic (including
2 and 3) is handled uniformly.
"""

from __future__ import annotations

import random

from .errors import AlbertError
from .scalars import BiDualElement, BiDualRing, lift
from .multipoly import PolyRing
from .deg3 import vadd, vscale, vsub
from .report import Report
from . import linalg

AXIOM_IDS = (
    "unit-norm",            # N(c) = 1
    "trace-nondegenerate",  # the derived bilinear trace has nonzero Gram determinant
    "adjoint-trace",        # T(x^#, y) equals the directional derivative of N
    "adjoint-double",       # x^{##} = N(x) x
    "unit-adjoint",         # c^# = c
    "unit-cross",           # c X x = T(x) c - x
)


class CubicJordan:
    """Cubic norm structure (N, #, c) on an n-dimensional carrier over k."""

    kind = "custom"

    def __init__(self, field, dim, unit, label=""):
        if not field.is_field:
            raise AlbertError("cubic norm structures need a field of scalars")
        self.field = field
        self.dim = dim
        self.unit = tuple(unit)
        self.label = label or self.kind
        self._gram = None
        self._trace_vec = None

    # -- the two primitive programs, provided by subclasses ---------------

    def norm_program(self, S, coords):
        raise NotImplementedError

    def sharp_program(self, S, coords):
        raise NotImplementedError

    # -- vectors over extensions ------------------------------------------

    def lift_vec(self, S, coords):
        if S == self.field:
            return tuple(coords)
        return tuple(lift(S, self.field, c) for c in coords)

    def unit_vec(self, S=None):
        S = S or self.field
        return self.lift_vec(S, self.unit)

    def basis(self, S=None):
        S = S or self.field
        z, o = S.zero(), S.one()
        out = []
        for i in range(self.dim):
            v = [z] * self.dim
            v[i] = o
            out.append(tuple(v))
        return out

    def generic_vectors(self, copies=1):
        """(ring, vec_1, ..., vec_copies) of generic polynomial coordinates."""
        names = []
        for c in range(copies):
            prefix = "xyzw"[c] if copies <= 4 else f"v{c}_"
            names += [f"{prefix}{i+1}" for i in range(self.dim)]
        ring = PolyRing(self.field, names)
        gens = ring.gens()
        vecs = [tuple(gens[c * self.dim:(c + 1) * self.dim]) for c in range(copies)]
        return (ring, *vecs)

    def sample_vec(self, rng, bound=9):
        return tuple(self.field.sample(rng, bound) for _ in range(self.dim))

    # -- derived structure --------------------------------------------------

    def norm(self, x, S=None):
        return self.norm_program(S or self.field, x)

    def sharp(self, x, S=None):
        return self.sharp_program(S or self.field, x)

    def trace_linear(self, x, S=None):
        """T(x): first directional derivative of N at c in direction x."""
        return self.directional_norm_derivative(self.unit_vec(S), x, S)

    def second_derivative_at_unit(self, x, y, S=None):
        """The e1*e2 coefficient of N(c + e1 x + e2 y)."""
        S = S or self.field
        BS = BiDualRing(S)
        z = S.zero()
        c = self.unit_vec(S)
        arg = tuple(BiDualElement(a, b1, b2, z, BS) for a, b1, b2 in zip(c, x, y))
        return self.norm_program(BS, arg).c

    def trace_bilinear(self, x, y, S=None):
        """T(x,y) = T(x)T(y) - D2N(c; x, y), derived directly from N."""
        S = S or self.field
        return self.trace_linear(x, S) * self.trace_linear(y, S) - \
            self.second_derivative_at_unit(x, y, S)

    def trace_vector(self):
        """(T(e_1), ..., T(e_n)) over k, computed in one generic pass."""
        if self._trace_vec is None:
            ring = PolyRing(self.field, self.dim)
            lin = self.trace_linear(ring.gens(), S=ring)
            self._trace_vec = tuple(
                lin.coefficient([1 if j == i else 0 for j in range(self.dim)])
                for i in range(self.dim)
            )
        return self._trace_vec

    def gram(self):
        """Gram matrix of the bilinear trace on the standard basis.

        One generic pass: the mixed second derivative of N at c is evaluated
        on two generic vectors and its bilinear coefficients are read off,
        then combined with the linear trace coefficients.
        """
        if self._gram is None:
            n = self.dim
            ring, X, Y = self.generic_vectors(2)
            mixed = self.second_derivative_at_unit(X, Y, S=ring)
            tv = self.trace_vector()
            g = []
            for i in range(n):
                row = []
                for j in range(n):
                    e = [0] * (2 * n)
                    e[i] += 1
                    e[n + j] += 1
                    row.append(tv[i] * tv[j] - mixed.coefficient(e))
                g.append(row)
            self._gram = g
        return self._gram

    def nondegenerate(self):
        return linalg.rank(self.field, self.gram()) == self.dim

    def trace_pair(self, x, y, S=None):
        """Bilinear trace sum_i x_i (G y)_i via the cached Gram matrix G
        (fast path; G itself comes from the derivative-based derivation)."""
        S = S or self.field
        gy = linalg.mat_vec(self.gram(), y, S, self.field)
        return linalg.mat_vec([x], gy, S)[0]

    def cross(self, x, y, S=None):
        S = S or self.field
        xy = vadd(x, y)
        return vsub(vsub(self.sharp_program(S, xy), self.sharp_program(S, x)),
                    self.sharp_program(S, y))

    def u_op(self, x, y, S=None):
        S = S or self.field
        t = self.trace_pair(x, y, S)
        return vsub(vscale(t, x), self.cross(self.sharp_program(S, x), y, S))

    def u_matrix(self, x, S=None):
        """Matrix of U_x acting on column coordinate vectors.

        Column j is T(x, e_j) x - x^# X e_j.  The Gram matrix is symmetric, so
        the traces T(x, e_j) are the entries of G x; the cross products share
        the one (x^#)^#.
        """
        S = S or self.field
        traces = linalg.mat_vec(self.gram(), x, S, self.field)
        xsharp = self.sharp_program(S, x)
        xsharp2 = self.sharp_program(S, xsharp)
        cols = []
        for t, e in zip(traces, self.basis(S)):
            cross = vsub(vsub(self.sharp_program(S, vadd(xsharp, e)), xsharp2),
                         self.sharp_program(S, e))
            cols.append(vsub(vscale(t, x), cross))
        return linalg.transpose(cols)

    # -- axiom verification --------------------------------------------------

    def axiom_suite(self, sample_count=25, seed=1):
        """Exact verification of the structure axioms.

        Random samples (always including the base point) act as a fast
        pre-filter that can produce concrete counterexamples; the identities
        are then decided symbolically over generic polynomial coordinates,
        which settles them in every commutative base change.  Nondegeneracy
        of the trace form is a base-field check on the Gram determinant.
        Failures are reported, never raised: the returned :class:`Report`
        holds one check per entry of AXIOM_IDS, in that order.
        """
        if sample_count < 1:
            raise AlbertError("sample_count must be at least 1")
        rng = random.Random(seed)
        field = self.field
        report = Report()

        def record(axiom_id, ok, ce=None):
            report.record(axiom_id, ok, f"counterexample {ce}" if (not ok and ce) else "")

        def fmt(vec):
            return "(" + ",".join(field.format(c) for c in vec) + ")"

        c = self.unit_vec()
        samples = [c] + [self.sample_vec(rng, 4) for _ in range(sample_count - 1)]

        # checks run and are recorded in AXIOM_IDS order
        record("unit-norm", self.norm(c) == field.one())

        record("trace-nondegenerate", self.nondegenerate())

        # adjoint-trace: T(x^#, y) equals the directional derivative of N at x
        # in direction y
        ok, ce = True, None
        for x, y in zip(samples, samples[1:] + samples[:1]):
            if self.trace_pair(self.sharp(x), y) != self.directional_norm_derivative(x, y):
                ok, ce = False, f"x={fmt(x)} y={fmt(y)}"
                break
        if ok:
            ring, X, Y = self.generic_vectors(2)
            lhs = self.trace_pair(self.sharp_program(ring, X), Y, S=ring)
            rhs = self.directional_norm_derivative(X, Y, S=ring)
            if lhs != rhs:
                ok, ce = False, "generic coordinates"
        record("adjoint-trace", ok, ce)

        # adjoint-double: x^{##} = N(x) x
        ok, ce = True, None
        for x in samples:
            if tuple(self.sharp(self.sharp(x))) != tuple(vscale(self.norm(x), x)):
                ok, ce = False, f"x={fmt(x)}"
                break
        if ok:
            ring, X = self.generic_vectors(1)
            lhs = self.sharp_program(ring, self.sharp_program(ring, X))
            rhs = vscale(self.norm_program(ring, X), X)
            if tuple(lhs) != tuple(rhs):
                ok, ce = False, "generic coordinates"
        record("adjoint-double", ok, ce)

        record("unit-adjoint", tuple(self.sharp(c)) == tuple(c))

        # unit-cross: c X x = T(x) c - x
        ok, ce = True, None
        for x in samples:
            lhs = self.cross(c, x)
            rhs = vsub(vscale(self.trace_linear(x), c), x)
            if tuple(lhs) != tuple(rhs):
                ok, ce = False, f"x={fmt(x)}"
                break
        if ok:
            ring, X = self.generic_vectors(1)
            cS = self.unit_vec(ring)
            lhs = self.cross(cS, X, S=ring)
            rhs = vsub(vscale(self.trace_linear(X, S=ring), cS), X)
            if tuple(lhs) != tuple(rhs):
                ok, ce = False, "generic coordinates"
        record("unit-cross", ok, ce)
        return report

    def directional_norm_derivative(self, x, y, S=None):
        """The e1 coefficient of N(x + e1*y): the derivative of N at x
        in direction y."""
        S = S or self.field
        BS = BiDualRing(S)
        z = S.zero()
        arg = tuple(BiDualElement(a, b, z, z, BS) for a, b in zip(x, y))
        return self.norm_program(BS, arg).b1


class DPlus(CubicJordan):
    """The cubic norm structure of a degree-3 algebra on its own carrier:
    N the reduced norm, # the adjoint, c the algebra unit."""

    kind = "dplus"

    def __init__(self, algebra):
        if not algebra.base_ring.is_field:
            raise AlbertError("degree-3 carrier structure needs a field of scalars")
        self.algebra = algebra
        super().__init__(
            algebra.base_ring,
            algebra.dim,
            algebra.one_coords(algebra.base_ring),
            label=f"dplus({algebra.descriptor_string()})",
        )

    def norm_program(self, S, coords):
        return self.algebra.norm(S, coords)

    def sharp_program(self, S, coords):
        return self.algebra.sharp(S, coords)
