"""The generic cubic-norm-structure engine.

A :class:`CubicJordan` is a carrier of finite dimension n over a field k with
a distinguished base point c, a cubic norm evaluator N and a quadratic adjoint
evaluator #.  Both evaluators are *programs*: they accept an explicit scalar
ring S extending k together with coordinate tuples over S, and are therefore
usable numerically, symbolically over polynomial rings (the universal case
that decides identity-type axioms in every base change), and along
one-parameter families over rational function fields.

Everything else is derived from (N, #, c).  Derivatives are homogeneous
parts of one polynomial evaluation, read by one helper, never limits, so
every characteristic (including 2 and 3) is handled uniformly:

* the directional derivative of N at x in direction y, the e^1 part of
  N(x + e*y) over S[e];
* the trace vector (T(e_1), ..., T(e_n)), the linear part of N(c + X) for
  generic X; the linear trace T(x) contracts it with x;
* the Gram matrix of the bilinear trace T(x,y) = T(x)T(y) - D2N(c; x, y),
  where D2N is the mixed second directional derivative of N at c, the
  polarized quadratic part of the same N(c + X); this closed form is the
  polynomial unfolding of the logarithmic second derivative, using N(c) = 1,
  and is validated against independent oracles in the test suite; the
  bilinear trace contracts the Gram matrix with x and y; both tables are
  one cached evaluation;
* the cross product x X y = (x+y)^# - x^# - y^#;
* the U-operators U_x(y) = T(x,y)x - x^# X y, whose matrix reads every
  x^# X e_j off the linear part of (x^# + Y)^# for generic Y.
"""

from __future__ import annotations

import functools
import random

from .errors import AlbertError
from .scalars import lift
from .multipoly import PolyRing
from .deg3 import vadd, vscale, vsub
from .report import Report
from . import linalg

AXIOM_IDS = (
    "unit-norm",            # N(c) = 1
    "trace-nondegenerate",  # the Gram matrix of the bilinear trace has full rank
    "adjoint-trace",        # T(x^#, y) equals the directional derivative of N
    "adjoint-double",       # x^{##} = N(x) x
    "unit-adjoint",         # c^# = c
    "unit-cross",           # c X x = T(x) c - x
)


def _part(value, n, degree):
    """The degree-1 or degree-2 part of a polynomial ``value`` in n
    variables, read as a derivative at 0: degree 1 gives the list of linear
    coefficients, degree 2 the symmetric matrix B of the polarized quadratic
    part q, q(x + y) - q(x) - q(y) = sum_ij x_i B_ij y_j."""
    zero = value.ring.field.zero()
    if degree == 1:
        out = [zero] * n
        for (i,), c in value.part(1).items():
            out[i] = c
        return out
    out = [[zero] * n for _ in range(n)]
    for (i, j), c in value.part(2).items():
        out[i][j] = out[j][i] = c if i != j else c + c
    return out


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

    # -- the two primitive programs, provided by subclasses ---------------

    def norm_program(self, S, coords):
        raise NotImplementedError

    def sharp_program(self, S, coords):
        raise NotImplementedError

    # -- vectors over extensions ------------------------------------------

    def unit_vec(self, S=None):
        S = S or self.field
        return tuple(lift(S, self.field, c) for c in self.unit)

    def generic_vectors(self, copies=1):
        """(ring, vec_1, ..., vec_copies) of generic polynomial coordinates;
        at most four copies, named x, y, z, w."""
        names = [f"{'xyzw'[c]}{i+1}" for c in range(copies) for i in range(self.dim)]
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

    @functools.cached_property
    def _unit_expansion(self):
        """(trace vector, Gram matrix) from one generic evaluation of
        N(c + X): T(e_i) is the x_i coefficient, the derivative of N at c,
        and Gram entry (i, j) is T(e_i)T(e_j) minus entry (i, j) of the
        mixed second derivative of N at c, the polarized quadratic part."""
        n = self.dim
        ring = PolyRing(self.field, n)
        value = self.norm_program(ring, vadd(self.unit_vec(ring), ring.gens()))
        tv = _part(value, n, 1)
        mixed = _part(value, n, 2)
        return tuple(tv), [[ti * tj - m for tj, m in zip(tv, row)] for ti, row in zip(tv, mixed)]

    def directional_norm_derivative(self, x, y, S=None):
        """The derivative of N at x in direction y: the e coefficient of
        N(x + e*y) over S[e]."""
        ring = PolyRing(S or self.field, ["e"])
        value = self.norm_program(ring, [ring.univariate([a, b]) for a, b in zip(x, y)])
        return _part(value, 1, 1)[0]

    def trace_vector(self):
        """(T(e_1), ..., T(e_n)) over k, from the cached unit expansion."""
        return self._unit_expansion[0]

    def trace_linear(self, x, S=None):
        """T(x) = sum_i T(e_i) x_i via the cached trace vector."""
        S = S or self.field
        return linalg.mat_vec([self.trace_vector()], x, S, self.field)[0]

    def gram(self):
        """Gram matrix of the bilinear trace, from the cached unit expansion."""
        return self._unit_expansion[1]

    def nondegenerate(self):
        return linalg.rank(self.field, self.gram()) == self.dim

    def trace_pair(self, x, y, S=None):
        """The bilinear trace T(x, y) = sum_i x_i (G y)_i via the cached Gram
        matrix G."""
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

        Row i is the part linear in Y of T(x, Y) x_i - ((x^# + Y)^#)_i for
        generic Y: since # is quadratic, x^# X Y is the part linear in Y of
        (x^# + Y)^#, so one evaluation gives every cross product x^# X e_j.
        The Gram matrix is symmetric, so T(x, Y) is the linear form with
        the coefficients G x.  Each row is assembled in the polynomial ring
        and read once.
        """
        S = S or self.field
        n = self.dim
        ring = PolyRing(S, n)
        xsharp = self.sharp_program(S, x)
        value = self.sharp_program(ring, [ring.from_base(a) + y
                                          for a, y in zip(xsharp, ring.gens())])
        traces = ring.linear_form([[t] for t in linalg.mat_vec(self.gram(), x, S, self.field)])
        return [_part(traces.scale(xi) - v, n, 1) for xi, v in zip(x, value)]

    # -- axiom verification --------------------------------------------------

    def axiom_suite(self, sample_count=25, seed=1):
        """Exact verification of the structure axioms.

        Each identity goes through one decider: random samples (always
        including the base point) act as a fast pre-filter that stops at the
        first concrete counterexample; the identity is then decided
        symbolically over generic polynomial coordinates, which settles it in
        every commutative base change.  Nondegeneracy of the trace form is a
        base-field rank check on the Gram matrix.  Failures are reported,
        never raised: the returned :class:`Report` holds one check per entry
        of AXIOM_IDS, in that order.
        """
        if sample_count < 1:
            raise AlbertError("sample_count must be at least 1")
        field = self.field
        report = Report()

        def record(axiom_id, ok, ce=None):
            report.record(axiom_id, ok, f"counterexample {ce}" if (not ok and ce) else "")

        def fmt(vec):
            return "(" + ",".join(field.format(c) for c in vec) + ")"

        def decide(axiom_id, sides, vectors, arity):
            """Record whether ``sides(S, *v)`` returns two equal values on each
            tuple v of ``vectors`` over k, then on generic coordinates."""
            for v in vectors:
                lhs, rhs = sides(field, *v)
                if lhs != rhs:
                    record(axiom_id, False,
                           " ".join(f"{'xy'[i]}={fmt(u)}" for i, u in enumerate(v)))
                    return
            ring, *generic = self.generic_vectors(arity)
            lhs, rhs = sides(ring, *generic)
            record(axiom_id, lhs == rhs, "generic coordinates")

        c = self.unit_vec()

        def samples():
            """c, then sample_count - 1 vectors drawn from a fresh seeded
            stream, so every decider sees the same samples."""
            rng = random.Random(seed)
            yield c
            for _ in range(sample_count - 1):
                yield self.sample_vec(rng, 4)

        def cyclic_pairs():
            """(s_0, s_1), ..., (s_last, s_0) over the samples."""
            it = samples()
            first = prev = next(it)
            for s in it:
                yield prev, s
                prev = s
            yield prev, first

        # checks run and are recorded in AXIOM_IDS order
        record("unit-norm", self.norm(c) == field.one())

        record("trace-nondegenerate", self.nondegenerate())

        decide("adjoint-trace",
               lambda S, x, y: (self.trace_pair(self.sharp_program(S, x), y, S),
                                self.directional_norm_derivative(x, y, S)),
               cyclic_pairs(), 2)

        decide("adjoint-double",
               lambda S, x: (tuple(self.sharp_program(S, self.sharp_program(S, x))),
                             vscale(self.norm_program(S, x), x)),
               ((x,) for x in samples()), 1)

        record("unit-adjoint", tuple(self.sharp(c)) == tuple(c))

        def unit_cross(S, x):
            cS = self.unit_vec(S)
            return (tuple(self.cross(cS, x, S)),
                    vsub(vscale(self.trace_linear(x, S), cS), x))

        decide("unit-cross", unit_cross, ((x,) for x in samples()), 1)
        return report


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
