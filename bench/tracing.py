"""Per-layer spans for the traced run, taken from outside the program.

Each layer function is replaced by a wrapper wherever it is bound by name:
in its own module, in every ``albert`` module that imported it with
``from ... import``, and under every class attribute that aliases it (such as
``MPoly.__radd__ = __add__``).  A wrapper times its call, charges the time to
its caller's span as child time, and counts calls, rejections (an
``AlbertError`` raised through it) and work.  A span's total time is its
duration; its self time is that minus its children's.  A call whose innermost open span has the same
name (recursion, ``__rsub__`` delegating to ``__sub__``, ``certify``
delegating to ``certify_between``) is merged into that span.

Spans are aggregated as they close, not stored: the arithmetic layers close
millions of spans per run.  ``Fraction`` and F_p arithmetic is not wrapped;
its time shows as the self time of the layer that calls it, and
``multipoly.mul.pairs`` and ``linalg.mat_mul.*.products`` count its work.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

from albert import (certfile, cubicnorm, deg3, linalg, maps, multipoly,
                    rpaths, scenario, tits, upoly)
from albert.errors import AlbertError
from albert.multipoly import MPoly
from albert.upoly import RatFunc


class Tracer:
    def __init__(self):
        self.stats = defaultdict(lambda: defaultdict(float))
        self.stack = []
        self.op_max_terms = 0
        self._saved = []

    # -- spans ---------------------------------------------------------------

    def wrap(self, fn, name, count=None, namer=None):
        stack, stats = self.stack, self.stats

        def wrapper(*args, **kwargs):
            span = namer(args) if namer else name
            if stack and stack[-1][0] == span:
                return fn(*args, **kwargs)
            frame = [span, 0.0]
            stack.append(frame)
            rejected = False
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except AlbertError:
                rejected = True
                raise
            finally:
                elapsed = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                st = stats[span]
                st["calls"] += 1
                st["self_s"] += elapsed - frame[1]
                st["total_s"] += elapsed
                if rejected:
                    st["rejected"] += 1
            if count is not None and result is not NotImplemented:
                count(st, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def run(self, name, fn, *args):
        """Run ``fn`` as the root span ``name`` (one per op)."""
        return self.wrap(fn, name)(*args)

    # -- patching ------------------------------------------------------------

    def patch(self, fn, wrapper):
        """Replace ``fn`` by ``wrapper`` in every albert module and class
        namespace that binds it; returns the number of bindings replaced."""
        bound = 0
        for mod_name, module in list(sys.modules.items()):
            if not (mod_name == "albert" or mod_name.startswith("albert.")):
                continue
            for owner in [module] + [v for v in vars(module).values() if isinstance(v, type)]:
                for attr, value in list(vars(owner).items()):
                    if value is fn:
                        self._saved.append((owner, attr, value))
                        setattr(owner, attr, wrapper)
                        bound += 1
        return bound

    def install(self):
        for fn, name, count, namer in _layers(self):
            if not self.patch(fn, self.wrap(fn, name, count, namer)):
                raise RuntimeError(f"no binding found for {name}")

    def uninstall(self):
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)

    # -- work counters -------------------------------------------------------

    @staticmethod
    def _count_mat_mul(st, args, result):
        A, B = args
        m = len(B)
        col_nz = [sum(1 for row in A if row[k]) for k in range(m)]
        row_nz = [sum(1 for v in B[k] if v) for k in range(m)]
        st["products"] += len(A) * m * len(B[0])
        st["nonzero_products"] += sum(c * r for c, r in zip(col_nz, row_nz))

    def _count_mul(self, st, args, result):
        a, b = args
        st["pairs"] += len(a.terms) * (len(b.terms) if isinstance(b, MPoly) else 1)
        st["terms_out"] += len(result.terms)
        self.op_max_terms = max(self.op_max_terms, len(result.terms))

    @staticmethod
    def _count_terms(st, args, result):
        if isinstance(result, MPoly):
            st["terms_out"] += len(result.terms)

    @staticmethod
    def _count_rendered(st, args, result):
        st["bytes"] += len(result)

    @staticmethod
    def _count_parsed(st, args, result):
        st["bytes"] += len(args[0])


def _mat_mul_kind(args):
    return "linalg.mat_mul.kt" if isinstance(args[0][0][0], RatFunc) else "linalg.mat_mul.qq"


def _methods(name, *classes):
    """The distinct functions defining ``name`` on the given classes."""
    seen = []
    for cls in classes:
        fn = vars(cls).get(name)
        if fn is not None and fn not in seen:
            seen.append(fn)
    return seen


def _layers(tr):
    """(function, span name, work counter, span namer) for every layer."""
    MP, RF, CJ = multipoly.MPoly, upoly.RatFunc, cubicnorm.CubicJordan
    algebras = (deg3.Deg3Algebra, deg3.CubicEtale, deg3.Matrix3, deg3.Cyclic,
                deg3.ProductWithOpposite)
    out = [
        (linalg.mat_mul, None, tr._count_mat_mul, _mat_mul_kind),
        (linalg.inverse, "linalg.inverse", None, None),
        (MP.__mul__, "multipoly.mul", tr._count_mul, None),
        (MP.__add__, "multipoly.add", None, None),
        (MP.__sub__, "multipoly.add", None, None),
        (MP.__rsub__, "multipoly.add", None, None),
        (multipoly.proportionality, "multipoly.proportionality", None, None),
        (CJ.u_matrix, "cubicnorm.u_matrix", None, None),
        (CJ.u_op, "cubicnorm.u_op", None, None),
        (CJ.axiom_suite, "cubicnorm.axiom_suite", None, None),
        (upoly.poly_gcd, "upoly.gcd", None, None),
        (upoly.poly_lcm, "upoly.lcm", None, None),
        (rpaths.path_certify, "rpaths.path_certify", None, None),
        (rpaths.compose_path_with_map, "rpaths.compose_path_with_map", None, None),
        (rpaths.conj_path, "rpaths.conj_path", None, None),
        (rpaths.sl1_path_split, "rpaths.sl1_path_split", None, None),
        (rpaths.cert_check, "rpaths.cert_check", None, None),
        (maps.certify, "maps.certify", None, None),
        (maps.certify_between, "maps.certify", None, None),
        (deg3.transvection_factorization, "deg3.transvection_factorization", None, None),
        (certfile.render_certificate, "certfile.render", tr._count_rendered, None),
        (certfile.parse_certificate, "certfile.parse", tr._count_parsed, None),
        (scenario.parse_scenario, "scenario.parse_scenario", None, None),
        (scenario.run_suite, "scenario.run_suite", None, None),
    ]
    for op in ("__add__", "__sub__", "__rsub__", "__mul__", "__truediv__", "__rtruediv__"):
        out.append((vars(RF)[op], "upoly.ratfunc", None, None))
    for fn in _methods("norm_program", tits.FirstTits, tits.SecondTits):
        out.append((fn, "tits.norm_program", tr._count_terms, None))
    for fn in _methods("sharp_program", tits.FirstTits, tits.SecondTits):
        out.append((fn, "tits.sharp_program", None, None))
    for fn in _methods("mul", *algebras[1:]):
        out.append((fn, "deg3.mul", None, None))
    for fn in _methods("inverse_coords", *algebras):
        out.append((fn, "deg3.inverse_coords", None, None))
    return out
