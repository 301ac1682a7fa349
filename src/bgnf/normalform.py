"""Inductive normalization of an elliptic two-degree-of-freedom Hamiltonian.

For each degree s = 3..N the current Hamiltonian's s-homogeneous part is
split into a kernel part (kept, it commutes with the quadratic flow) and an
image part L; the generating polynomial G_s is the unique image-of-D
solution of -D.G_s = L, the induced near-identity canonical map is obtained
by inverting the generating relations, and the Hamiltonian is recomposed.
The gauge is canonical: every G_s has zero kernel component, which makes
the whole sequence a pure function of (H, N, alpha, resonance data).

Symmetry-preserving facts about this construction (restriction to an
invariant symplectic coordinate plane, invariance under the diagonal Z_p
rotation) are exposed as checkers; they hold automatically in this gauge
because the kernel/image splitting is equivariant.  The diagonal
reversors of a Hamiltonian are read off the monomial parities, and the
coordinate transform commutes with each of them for the same reason.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .scalars import CC, Field, QuadExt, quad_field
from .poly import (
    COMPLEX,
    REAL,
    Polynomial,
    TruncatedMap,
    apply_D,
    compose_map,
    compose_maps,
    degree,
    invert_generating,
    linear_substitute,
    solve_homological,
    split_ker_im,
    sum_of_products,
    symplectic_defect,
    to_complex,
    to_real,
)
from .resonance import Frequencies, ResonanceData, resonance_pair

__all__ = [
    "NormalFormResult",
    "VerifyReport",
    "normalize",
    "verify",
    "check_plane_invariance",
    "check_zp_invariance",
    "zp_phase_gcd",
    "diagonal_reversors",
    "psi_conjugate",
]

GAUGE_IM_D = "im-D"


class NormalFormResult:
    """Output of the normalizer: kernel form, generators, map.

    ``h_n`` is the one store of the kernel coefficients; ``coefficient``
    and ``table`` read it (the terms of degree 3..N, the quadratic part
    H2 left out).

    ``transform`` is the composed map (eta, xi) -> (y, x) from the normal-form
    coordinates back to the input's, folded from ``steps``, its only source:
    the first read folds the step maps phi_3..phi_N of a normalizer run as
    phi_3 o (phi_4 o (... o phi_N)) (one ``compose_maps`` call per step; the
    identity when there are none), and later reads return the same map.
    Only :func:`verify` and the numeric seeding read it.  It is None on
    results built without ``steps``: the Psi-conjugated analysis form and
    the built-in averaged lunar form, which :func:`verify` rejects.
    """

    def __init__(self, h_n: Polynomial, generators: list[Polynomial],
                 alpha: Frequencies, res: ResonanceData, order: int,
                 gauge: str = GAUGE_IM_D, symmetry: dict | None = None,
                 steps: list[TruncatedMap] | None = None):
        self.h_n = h_n                  # complex chart, annihilated by D
        self.generators = generators    # G_s, s = 3..N, real chart in (eta, x)
        self.alpha = alpha
        self.res = res
        self.order = order
        self.gauge = gauge
        self.symmetry = {} if symmetry is None else symmetry
        self.steps = steps              # phi_s with G_s != 0, s ascending
        self._transform = None

    @property
    def transform(self) -> TruncatedMap | None:
        if self._transform is None and self.steps is not None:
            # fold right so the sparse late maps are substituted first
            folded = TruncatedMap.identity(self.field, self.order)
            for phi_s in reversed(self.steps):
                folded = compose_maps(phi_s, folded, self.order)
            self._transform = folded
        return self._transform

    def coefficient(self, exps) -> CC:
        """a_exps of the kernel form; zero on the quadratic part."""
        exps = tuple(exps)
        if degree(exps) >= 3 and exps in self.h_n.coeffs:
            return self.h_n.coeffs[exps]
        z = self.field.zero()
        return CC(z, z)

    @property
    def table(self) -> dict:
        """{exponent quadruple: CC} of the kernel terms of degree 3..N."""
        return {e: c for e, c in self.h_n.coeffs.items() if degree(e) >= 3}

    @property
    def field(self) -> Field:
        return self.h_n.field

    def gamma(self, s: int) -> Polynomial:
        """Degree-s kernel part of the normal form."""
        return self.h_n.homogeneous_part(s)


def _check_quadratic_part(h: Polynomial, alpha: Frequencies) -> None:
    want = Polynomial.quadratic_h2(tuple(alpha), h.chart, h.field, 2)
    if h.up_to_degree(2) != want:
        raise ValueError(
            "Hamiltonian is not in the required form: quadratic part must be "
            "exactly alpha1/2 (y1^2+x1^2) + alpha2/2 (y2^2+x2^2) with no "
            "constant or linear terms"
        )


def normalize(h: Polynomial, order: int, alpha: Frequencies,
              res: ResonanceData | None = None) -> NormalFormResult:
    """Birkhoff-Gustavson normal form of ``h`` through degree ``order``.

    ``h`` may be given on either chart; its Taylor data must extend at least
    to ``order`` (i.e. h.order >= order) and its quadratic part must be the
    diagonal form prescribed by ``alpha``.  The resonance data defaults to
    the exact generator computed from ``alpha``.

    Each degree s with a nonzero image part makes one generating-function
    inversion (:func:`invert_generating`) and, below ``order``, one
    recomposition of the Hamiltonian: nothing reads H o phi_N.  The
    result keeps the step maps, phi_N too, and folds them into the
    coordinate transform on the first read of ``transform``.
    """
    if order < 3:
        raise ValueError("normalization starts at order 3")
    if h.order < order:
        raise ValueError(
            f"input polynomial only carries Taylor data to degree {h.order} "
            f"< requested order {order}"
        )
    if res is None:
        res = resonance_pair(tuple(alpha))
    else:
        res = resonance_pair(tuple(alpha), declared=res)
    _check_quadratic_part(h, alpha)

    work = to_real(h) if h.chart == COMPLEX else h
    work = work.truncate(order)
    field = work.field

    h2c = Polynomial.quadratic_h2(tuple(alpha), COMPLEX, field, order)
    kernel_acc = h2c
    generators: list[Polynomial] = []
    step_maps: list[TruncatedMap] = []

    for s in range(3, order + 1):
        hs = work.homogeneous_part(s)
        if hs.is_zero():
            generators.append(Polynomial.zero(REAL, field, order))
            continue
        hs_c = to_complex(hs)
        ker, img = split_ker_im(hs_c, res)
        kernel_acc = kernel_acc + ker
        if img.is_zero():
            generators.append(Polynomial.zero(REAL, field, order))
            continue
        g_s = to_real(solve_homological(img, tuple(alpha), res))
        generators.append(g_s)
        phi_s = invert_generating(g_s, order)
        if s < order:
            work = compose_map(work, phi_s, order)
        step_maps.append(phi_s)

    return NormalFormResult(
        h_n=kernel_acc,
        generators=generators,
        steps=step_maps,
        alpha=alpha,
        res=res,
        order=order,
    )


@dataclass
class VerifyReport:
    ok: bool
    failures: list[str]

    def __bool__(self):
        return self.ok


def verify(nf: NormalFormResult, h: Polynomial) -> VerifyReport:
    """Re-derive the defining identities of a normal-form result.

    Checks: D annihilates H_N; the coefficient table is Hermitian
    (a_lk = conj(a_kl)); the quadratic part matches alpha; H o Phi - H_N has
    no terms of degree <= N; the transform is symplectic to the guaranteed
    order.  Stops reporting after collecting all failures (report style).
    Raises ValueError on a result that carries no transform.
    """
    if nf.transform is None:
        raise ValueError("this normal form carries no coordinate transform "
                         "to verify")
    failures = []
    alpha = tuple(nf.alpha)
    d_hn = apply_D(nf.h_n, alpha)
    if not d_hn.is_zero():
        e = next(iter(d_hn.coeffs))
        failures.append(f"D.H_N != 0 (first offender {e})")
    if not nf.h_n.is_real_valued():
        failures.append("reality violated: some a_lk != conj(a_kl)")
    try:
        _check_quadratic_part(nf.h_n, nf.alpha)
    except ValueError:
        failures.append("quadratic part of H_N differs from H2")
    hr = to_real(h) if h.chart == COMPLEX else h
    composed = compose_map(hr.truncate(nf.order), nf.transform, nf.order)
    residue = to_complex(composed) - nf.h_n
    if not residue.is_zero():
        e = min(residue.coeffs, key=degree)
        failures.append(
            f"H o Phi - H_N has a degree-{degree(e)} term at {e}"
        )
    defect = symplectic_defect(nf.transform, nf.order)
    if defect != 0:
        failures.append(
            f"symplectic defect {nf.field.format_elem(defect)} != 0")
    return VerifyReport(ok=not failures, failures=failures)


# ---------------------------------------------------------------------------
# symmetries
# ---------------------------------------------------------------------------


def check_plane_invariance(h: Polynomial, plane: str) -> bool:
    """True iff the coordinate plane is invariant for the flow of ``h``.

    ``plane`` is "z2" for the {y2 = x2 = 0} condition (partial derivatives
    in the second pair vanish on the plane) or "z1" symmetrically.  The
    coefficient criterion: no monomial carries total degree exactly 1 in the
    selected variable pair.  Chart-independent.
    """
    if plane not in ("z1", "z2"):
        raise ValueError("plane must be 'z1' or 'z2'")
    i, j = (0, 2) if plane == "z1" else (1, 3)
    return all(e[i] + e[j] != 1 for e in h.coeffs)


def zp_phase_gcd(h: Polynomial) -> int:
    """The gcd of the rotation phases a - b + c - d of ``h``.

    With u = y1 + i y2 and v = x1 + i x2 each monomial u^a ubar^b v^c vbar^d
    has phase a - b + c - d, and H o R = H under the Z_p rotation R of
    :func:`check_zp_invariance` iff p divides this gcd; 0 means every
    rotation leaves ``h`` invariant.  The exponents (a, b, c, d) are read off ``h`` with
    2 y1 = u + ubar, 2 y2 = -i (u - ubar) and x1, x2 alike substituted.
    """
    hr = to_real(h) if h.chart == COMPLEX else h
    return math.gcd(*(e[0] - e[1] + e[2] - e[3]
                      for e in linear_substitute(hr, _UV).coeffs))


def check_zp_invariance(h: Polynomial, p: int) -> bool:
    """Exact check of H o R = H under the Z_p rotation R.

    R rotates the Lagrangian planes (y1,y2) and (x1,x2) by 2 pi / p,
    multiplying u = y1 + i y2 and v = x1 + i x2 by e^{2 pi i/p}: p must
    divide :func:`zp_phase_gcd`, which reads the monomials of an exact chart
    change, so the check is exact for every p and every coefficient field.
    """
    if p < 2:
        raise ValueError("p >= 2 required")
    return zp_phase_gcd(h) % p == 0


def _parity(exps, r) -> int:
    """prod_j r_j^exps_j for a sign vector r."""
    return -1 if sum(k for k, s in zip(exps, r) if s < 0) % 2 else 1


def diagonal_reversors(h: Polynomial) -> tuple:
    """The diagonal anti-symplectic maps R with H o R = H, as sign 4-tuples.

    R = diag(s1, s2, -s1, -s2) on (y1, y2, x1, x2) reverses the flow of H
    exactly when every monomial y1^a y2^b x1^c x2^d of H has
    s1^(a+c) s2^(b+d) (-1)^(c+d) = 1: the exponents decide it, for every
    coefficient field.
    """
    hr = to_real(h) if h.chart == COMPLEX else h
    signs = [(s1, s2, -s1, -s2) for s1 in (1, -1) for s2 in (1, -1)]
    return tuple(r for r in signs if all(_parity(e, r) == 1 for e in hr.coeffs))


# Psi on the complex chart, times sqrt 2: Z1 = z1 + z2, Z2 = i (z1 - z2)
# and the conjugate rows; the 2^{-1/2} per variable is applied per degree
_I = CC(0, 1)
_PSI_GAUSS = ((1, 1, 0, 0), (_I, -_I, 0, 0), (0, 0, 1, 1), (0, 0, -_I, _I))
# 2 (y1, y2, x1, x2) in (u, ubar, v, vbar); 2^s on degree s moves no monomial
_UV = ((1, 1, 0, 0), (-_I, _I, 0, 0), (0, 0, 1, 1), (0, 0, -_I, _I))


def psi_conjugate(h: Polynomial) -> Polynomial:
    """H o Psi with Psi(y1,y2,x1,x2) = 2^{-1/2}(y1+y2, x1-x2, x1+x2, y2-y1).

    The result keeps the input's chart.  On the complex chart Psi does not
    mix z with zbar (Z1 = (z1+z2)/sqrt2, Z2 = i(z1-z2)/sqrt2), so H is
    substituted with that Gaussian-integer matrix and its degree-s part
    scaled by 2^{-s/2}.  A real-chart input, which must be real-valued,
    goes to the complex chart and back.  The result joins Q(sqrt 2) only
    when an odd-degree term is present; every 1:1 normal form is even.
    H2 o Psi = H2 is asserted whenever the quadratic part is isotropic.
    """
    if h.chart == REAL:
        return to_real(psi_conjugate(to_complex(h)))
    degrees = {degree(e) for e in h.coeffs}
    field = (h.field.join(quad_field(2)) if any(s % 2 for s in degrees)
             else h.field)
    scale = {}
    for s in degrees:
        f = Fraction(1, 2 ** ((s + 1) // 2))   # 2^{-s/2} = f sqrt 2, s odd
        scale[s] = field.coerce(f * QuadExt(0, 1, 2) if s % 2 else f)
    out = linear_substitute(_scale_degrees(h, field, scale), _PSI_GAUSS)
    quad_in = h.homogeneous_part(2)
    t = quad_in.coeffs
    if (t.keys() == {(1, 0, 1, 0), (0, 1, 0, 1)}
            and t[(1, 0, 1, 0)] == t[(0, 1, 0, 1)]):
        if out.homogeneous_part(2) != quad_in:
            raise AssertionError("H2 o Psi != H2 for an isotropic quadratic part")
    return out


def _scale_degrees(h: Polynomial, field: Field, scale: dict) -> Polynomial:
    """sum_s scale[s] * (degree-s part of h), over ``field``."""
    return sum_of_products([(c, h.homogeneous_part(s), None)
                            for s, c in scale.items()], h.order, field, h.chart)
