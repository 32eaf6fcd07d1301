"""First and second Tits constructions as cubic norm structures.

First construction J(D, lam): carrier D + D + D with

    N((x,y,z)) = N_D(x) + lam N_D(y) + lam^{-1} N_D(z) - T_D(xyz)
    (x,y,z)^#  = (x^# - yz, lam^{-1} z^# - xy, lam y^# - zx)
    1 = (1, 0, 0)

The norm is one sum of products: the norm pairs of x, of y and of z
(``Deg3Algebra.norm_pairs``) and the trace pairs of (xy, z), with lam,
lam^-1 and -1 multiplied into the side of each pair with fewer terms, go to
one :func:`multipoly.dot`, so over a polynomial ring none of the four
values is formed as a normal form of its own.  Over any other ring each
scaled group of pairs is summed first, so its scalar costs one product.

Second construction J(B, sigma, u, mu) for an algebra B with involution of
the second kind over a quadratic etale center K and an admissible pair
(sigma(u) = u, N_B(u) = mu*conj(mu)): carrier Herm(B, sigma) + B with

    N((b,x)) = N_B(b) + T_K(mu N_B(x)) - T_B(b x u sigma(x))
    (b,x)^#  = (b^# - x u sigma(x), conj(mu) sigma(x)^# u^{-1} - b x)
    1 = (1_B, 0)

The second construction's carrier is over the bottom field k of K.  Its
hermitian block holds coordinates in a k-basis of Herm(B, sigma), and its
free block the k-components of B's coordinates, interleaved.  The programs
run over the center base-changed along S (``Deg3Algebra.extend_ring``); one
``linalg.Subspace`` carries the hermitian block to interleaved k-coordinates
and back, checking exactly that the adjoint lands in Herm(B, sigma).

Whether the result is a division algebra depends on norm-image conditions
that are accepted as caller-supplied metadata and recorded, never evaluated.
"""

from __future__ import annotations

from .errors import AlbertError, ConstraintError
from .multipoly import MPoly, dot
from .scalars import QuadraticEtale, lift
from .deg3 import ProductWithOpposite, Switch, vscale, vsub
from .cubicnorm import CubicJordan
from . import linalg


def _scaled(c, pairs):
    """Pairs whose sum of products is c times that of ``pairs``.  Over a
    polynomial ring c goes into the side of each pair with fewer terms, so
    no sum is formed on its own; over any other ring the pairs are summed
    first, so c costs one product."""
    if pairs and type(pairs[0][0]) is MPoly:
        return [(c * u, v) if len(u.terms) <= len(v.terms) else (u, c * v) for u, v in pairs]
    return [(c, dot(pairs))] if pairs else []


class FirstTits(CubicJordan):
    """J(D, lam) on the carrier D + D + D."""

    kind = "first-tits"

    def __init__(self, D, lam, division_asserted=False):
        field = D.base_ring
        if not field.is_field:
            raise AlbertError("first construction needs coordinates over a field")
        if field.is_zero(lam):
            raise ConstraintError("lambda must be nonzero", code="zero-lambda")
        self.D = D
        self.lam = lam
        self.lam_inv = field.inv(lam)
        # division holds exactly when the scale is not a reduced norm from the
        # coordinate algebra; that membership is the caller's own assertion
        self.division_asserted = division_asserted
        self.division_criterion = "scale-not-a-reduced-norm-of-coordinates"
        m = D.dim
        unit = D.one_coords(field) + D.zero_coords(field) + D.zero_coords(field)
        super().__init__(field, 3 * m, unit, label=f"first_tits({D.descriptor_string()},lambda={field.format(lam)})")

    def blocks(self, coords):
        m = self.D.dim
        return tuple(coords[0:m]), tuple(coords[m:2 * m]), tuple(coords[2 * m:3 * m])

    def assemble(self, x, y, z):
        return tuple(x) + tuple(y) + tuple(z)

    def embed(self, elem, block=0):
        """Carrier vector with the element's coordinates in one block."""
        parts = [self.D.zero_coords(elem.ring)] * 3
        parts[block] = elem.coords
        return self.assemble(*parts)

    def norm_program(self, S, coords):
        """One :func:`dot` over the norm pairs of x, of y scaled by lam and
        of z scaled by lam^-1, and the negated trace pairs of (xy, z); over
        a polynomial ring no norm and no trace is formed on its own."""
        D, k = self.D, self.field
        one = k.one()
        x, y, z = self.blocks(coords)
        pairs = D.norm_pairs(S, x)
        for c, block in ((self.lam, y), (self.lam_inv, z)):
            block_pairs = D.norm_pairs(S, block)
            pairs += block_pairs if c == one else _scaled(lift(S, k, c), block_pairs)
        pairs += _scaled(lift(S, k, -one), D.trace_pairs(S, D.mul(S, x, y), z))
        return dot(pairs) if pairs else S.zero()

    def sharp_program(self, S, coords):
        D = self.D
        x, y, z = self.blocks(coords)
        lam = lift(S, self.field, self.lam)
        lam_inv = lift(S, self.field, self.lam_inv)
        first = vsub(D.sharp(S, x), D.mul(S, y, z))
        second = vsub(vscale(lam_inv, D.sharp(S, z)), D.mul(S, x, y))
        third = vsub(vscale(lam, D.sharp(S, y)), D.mul(S, z, x))
        return first + second + third


class SecondTits(CubicJordan):
    """J(B, sigma, u, mu) on the carrier Herm(B, sigma) + B, over the bottom
    field of B's quadratic etale center."""

    kind = "second-tits"

    def __init__(self, B, u, mu, division_asserted=False):
        K = B.base_ring
        if not isinstance(K, QuadraticEtale):
            raise ConstraintError("second construction needs a quadratic etale center")
        if B.involution is None:
            raise ConstraintError("second construction needs an involution of the second kind")
        field = K.base
        self.B = B
        self.K = K
        u = B.element(u)
        self.u = u
        self.mu = mu
        self.mu_bar = K.conj(mu)
        if u.conj() != u:
            raise ConstraintError(
                "inadmissible pair: sigma(u) != u", code="inadmissible-pair"
            )
        if K.is_zero(mu):
            raise ConstraintError("inadmissible pair: mu = 0", code="inadmissible-pair")
        if u.norm() != mu * self.mu_bar:
            raise ConstraintError(
                "inadmissible pair: N_B(u) != mu*conj(mu)", code="inadmissible-pair"
            )
        self.u_inv = u.inverse()
        self.division_asserted = division_asserted
        self.division_criterion = "mu-not-a-norm-from-B"

        self._init_hermitian(field)
        m = B.dim
        unit_b = self._herm.coords(field, self._k_coords(K, B.one_coords(K)))
        unit = tuple(unit_b) + (field.zero(),) * (2 * m)
        label = (
            f"second_tits({B.descriptor_string()},{B.involution.descriptor_string()},"
            f"u=[{','.join(K.format(c) for c in u.coords)}],mu={K.format(mu)})"
        )
        super().__init__(field, 3 * m, unit, label=label)

    # hermitian bookkeeping: B has m coordinates over K, hence 2m over k; the
    # k-coordinate layout interleaves the two K-components of each coordinate

    @staticmethod
    def _k_coords(KS, coords):
        return [c for v in coords for c in KS.components(v)]

    @staticmethod
    def _center_coords(KS, kvec):
        return tuple(KS.make(kvec[2 * i], kvec[2 * i + 1]) for i in range(len(kvec) // 2))

    def _init_hermitian(self, field):
        B, K = self.B, self.K
        m = B.dim
        sigma_cols = []
        for j in range(2 * m):
            kvec = [field.zero()] * (2 * m)
            kvec[j] = field.one()
            img = B.involution_apply(K, self._center_coords(K, kvec))
            sigma_cols.append(self._k_coords(K, img))
        delta = linalg.mat_sub(linalg.transpose(sigma_cols), linalg.identity(field, 2 * m))
        herm_k = linalg.kernel(field, delta)
        if len(herm_k) != m:
            raise ConstraintError(
                f"hermitian part has k-dimension {len(herm_k)}, expected {m}"
            )
        self._herm_K = [self._center_coords(K, v) for v in herm_k]
        self._herm = linalg.Subspace(field, herm_k)

    def _project_hermitian_base(self, coords_K):
        return self._herm.coords(self.field, self._k_coords(self.K, coords_K))

    def parts(self, S, coords):
        """(KS, b, x): the hermitian block and the free block as B-coordinates
        over the center KS base-changed along S."""
        m = self.B.dim
        KS = self.B.extend_ring(S)
        b = self._center_coords(KS, self._herm.vector(S, coords[:m]))
        return KS, b, self._center_coords(KS, coords[m:])

    def embed_hermitian(self, b_elem):
        """Carrier vector of a hermitian element of B."""
        if b_elem.conj() != b_elem:
            raise ConstraintError("element is not hermitian")
        m = self.B.dim
        coords = self._project_hermitian_base(b_elem.coords)
        return tuple(coords) + (self.field.zero(),) * (2 * m)

    def embed_b(self, x_elem):
        """Carrier vector of an element of the free block."""
        m = self.B.dim
        return (self.field.zero(),) * m + tuple(self._k_coords(self.K, x_elem.coords))

    def norm_program(self, S, coords):
        B = self.B
        KS, b, x = self.parts(S, coords)
        mu = lift(KS, self.K, self.mu)
        u = B.lift_coords(KS, self.u.coords)
        sx = B.involution_apply(KS, x)
        nb = KS.base_part(B.norm(KS, b))
        tmu = KS.trace_to_base(mu * B.norm(KS, x))
        w = B.mul(KS, x, B.mul(KS, u, sx))
        tb = KS.base_part(B.trace_of_product(KS, b, w))
        return nb + tmu - tb

    def sharp_program(self, S, coords):
        B = self.B
        KS, b, x = self.parts(S, coords)
        mu_bar = lift(KS, self.K, self.mu_bar)
        u = B.lift_coords(KS, self.u.coords)
        u_inv = B.lift_coords(KS, self.u_inv.coords)
        sx = B.involution_apply(KS, x)
        first = vsub(B.sharp(KS, b), B.mul(KS, x, B.mul(KS, u, sx)))
        second = vsub(
            vscale(mu_bar, B.mul(KS, B.sharp(KS, sx), u_inv)),
            B.mul(KS, b, x),
        )
        # the hermitian block back in carrier coordinates, checked exactly
        out_b = self._herm.coords(S, self._k_coords(KS, first))
        return tuple(out_b) + tuple(self._k_coords(KS, second))


def split_identify(D, mu):
    """Identify J(D x D^op, switch, 1, mu) with the first construction J(D, lam).

    ``mu`` is a split-pair center scalar; admissibility forces its second
    component to be the inverse of the first, and lam is the first component.
    The identification sends a hermitian (diagonal) element to the first
    block and the two opposite-algebra components to the second and third
    blocks.  The returned map is certified by coefficient-level norm
    comparison; the lam value is confirmed by that oracle, not assumed.
    """
    from .maps import certify_between

    field = D.base_ring
    prodop = ProductWithOpposite(D).attach_involution(Switch())
    K = prodop.base_ring
    if not isinstance(mu, type(K.zero())):
        mu = K.make(mu[0], mu[1])
    J2 = SecondTits(prodop, prodop.one(), mu)
    lam = K.components(mu)[0]
    J1 = FirstTits(D, lam)
    m = D.dim
    n = 3 * m
    z = field.zero()
    cols = []
    for i in range(m):
        # hermitian basis vector -> its diagonal component in the first block
        first = [K.components(v)[0] for v in J2._herm_K[i]]
        cols.append(list(first) + [z] * (2 * m))
    for i in range(m):
        col_a = [z] * n
        col_a[m + i] = field.one()
        col_b = [z] * n
        col_b[2 * m + i] = field.one()
        cols.append(col_a)
        cols.append(col_b)
    matrix = linalg.transpose(cols)
    fmap = certify_between(J1, J2, matrix)
    if fmap.multiplier != field.one():
        raise AlbertError(
            "split identification oracle failed: multiplier is not 1",
            code="identification-failed",
        )
    img_unit = linalg.mat_vec(matrix, list(J2.unit))
    if tuple(img_unit) != tuple(J1.unit):
        raise AlbertError(
            "split identification oracle failed: unit not preserved",
            code="identification-failed",
        )
    return fmap
