"""Shared fixtures and independent oracles for the test suite.

The oracles here deliberately avoid the production shortcuts:

* ``oracle_apply_D`` differentiates monomials with the product rule and
  assembles D = sum alpha_j (y_j d/dx_j - x_j d/dy_j) term by term (complex
  chart via the z/zbar form), instead of the eigenvalue formula;
* ``oracle_split_solve`` splits and solves the homological equation by
  scanning that differentiated action monomial by monomial;
* ``poisson_bracket`` sums the four derivative products of {p, q} as
  factor pairs; ``oracle_lie_normalize`` normalizes by Lie series, each
  im-D generator W_s applied as exp(ad W_s) through brackets, never by a
  generating function or a map composition;
* ``sympy_bracket`` and ``sympy_compose`` expand everything symbolically
  with an unrelated library (``sympy_compose`` cuts each product at the
  order as it forms it);
* ``oracle_invert_generating`` runs the generating-function fixed point with
  every pass at full order, for a fixed ceil((N-1)/(s-2)) + 1 passes;
* ``oracle_mul`` multiplies by the schoolbook loop over every coefficient
  pair in CC arithmetic, never through the integer kernel;
* ``oracle_zp_invariance`` decides the Z_p symmetry R from monomial phases
  in u = y1 + i y2, v = x1 + i x2, with no rotation matrix;
* ``map_commutes`` decides phi o R = R o phi for a diagonal sign map R from
  the parity of every monomial of every component of phi;
* ``oracle_compose`` sums the textbook Taylor series of p o (id + N) over
  every multi-index, from ``Polynomial.diff``, ``scale`` and ``*`` only;
* ``oracle_linear_substitute`` substitutes any 4x4 matrix by multiplying
  out memoized powers of the images of the four variables, never by the
  cached pair rows of ``linear_substitute``;
* ``oracle_to_complex`` and ``oracle_to_real`` change charts by that
  general substitution, never by the per-plane integer rows;
* ``oracle_psi`` conjugates by Psi with its real-chart matrix over
  Q(sqrt 2), never on the complex chart and never by degree scaling;
* ``oracle_pullback_form`` forms the six entries of (DPhi)^T J (DPhi) from
  the 24 products of the Jacobian entries, never from a 1-form;
* ``oracle_add``, ``oracle_scale``, ``oracle_diff``, ``oracle_truncate``
  and ``oracle_homogeneous_part`` work coefficient by coefficient in CC
  arithmetic on ``coeffs``, never on the stored integer numerators, and
  ``canonical_den`` is the lcm of the reduced coefficient denominators;
* ``oracle_an_decompose`` sorts a kernel polynomial into H2, A0 and the
  sigma^n blocks A_n by the lattice index of k - l, monomial by monomial,
  and ``oracle_reassemble`` rebuilds the polynomial from those blocks,
  writing out each conjugate block that the decomposition leaves implied;
* ``oracle_substitute`` composes energy series by the power sum
  sum_k c_k inner^k, every power a full product, plus the O(inner^t) tail
  of the outer series; ``oracle_amplitude_series`` reverts the axis energy
  relation by full-order fixed-point passes through that power sum, reading
  A0 monomial by monomial from the normal form;
* ``oracle_poincare_brackets`` integrates the winding equation from 16
  starting angles over 1, 2, 4 and 8 periods, projecting the Hessian with
  ``quaternion_frame`` and numpy, never through the one-period monodromy;
* ``oracle_stm_rhs`` forms the variational right-hand side dM = J L M with
  numpy's 4x4 matrix products, never by the unrolled float sums;
* ``oracle_hessian`` compiles the Hessian of a polynomial as 16 separate
  expressions d_j d_i H, one per entry, sharing no local.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from bgnf.scalars import CC, RATIONAL, QuadExt, quad_field
from bgnf.poly import (COMPLEX, REAL, Polynomial, TruncatedMap, compose_many,
                       sum_of_products, to_complex, to_real)
from bgnf.normalform import NormalFormResult
from bgnf.resonance import Frequencies, resonance_pair
from bgnf.numeric import _codegen, _poly_expr, quaternion_frame
from bgnf.series import SeriesE


def all_exponents(deg):
    return [
        (k1, k2, l1, deg - k1 - k2 - l1)
        for k1 in range(deg + 1)
        for k2 in range(deg + 1 - k1)
        for l1 in range(deg + 1 - k1 - k2)
    ]


def from_terms(chart, terms, field=RATIONAL, order=10):
    """A polynomial from (exps, coeff) pairs; repeated exponents add up."""
    acc = {}
    for exps, coeff in terms:
        acc[tuple(exps)] = acc.get(tuple(exps), 0) + coeff
    return Polynomial(chart, field, order, acc)


def random_real_hamiltonian(rng, alpha, order=6, terms_per_degree=3,
                            field=RATIONAL):
    """Random real-chart Hamiltonian with the prescribed quadratic part."""
    half = Fraction(1, 2)
    coeffs = {
        (2, 0, 0, 0): CC(field.coerce(Fraction(alpha[0]) * half)),
        (0, 0, 2, 0): CC(field.coerce(Fraction(alpha[0]) * half)),
        (0, 2, 0, 0): CC(field.coerce(Fraction(alpha[1]) * half)),
        (0, 0, 0, 2): CC(field.coerce(Fraction(alpha[1]) * half)),
    }
    for deg in range(3, order + 1):
        for e in rng.sample(all_exponents(deg), terms_per_degree):
            c = Fraction(rng.randint(-20, 20), rng.randint(1, 12))
            if c:
                coeffs[e] = CC(field.coerce(c))
    return Polynomial(REAL, field, order, coeffs)


def random_real_quadratic_freqs(rng, order=6, terms_per_degree=3):
    """Hamiltonian with alpha = (1, sqrt 2), coefficients in Q(sqrt 2)."""
    field = quad_field(2)
    rt2 = QuadExt(0, 1, 2)
    alpha = (Fraction(1), rt2)
    coeffs = {
        (2, 0, 0, 0): CC(field.coerce(Fraction(1, 2))),
        (0, 0, 2, 0): CC(field.coerce(Fraction(1, 2))),
        (0, 2, 0, 0): CC(rt2 / 2),
        (0, 0, 0, 2): CC(rt2 / 2),
    }
    for deg in range(3, order + 1):
        for e in rng.sample(all_exponents(deg), terms_per_degree):
            c = Fraction(rng.randint(-20, 20), rng.randint(1, 12))
            if c:
                coeffs[e] = CC(field.coerce(c))
    return Polynomial(REAL, field, order, coeffs), alpha


def random_real_valued_complex(rng, order=6, terms_per_degree=3):
    """Random real-valued complex-chart polynomial (a_lk = conj(a_kl))."""
    coeffs = {}
    for deg in range(2, order + 1):
        for e in rng.sample(all_exponents(deg), terms_per_degree):
            re = Fraction(rng.randint(-9, 9), rng.randint(1, 8))
            im = Fraction(rng.randint(-9, 9), rng.randint(1, 8))
            k1, k2, l1, l2 = e
            mirror = (l1, l2, k1, k2)
            if e == mirror:
                im = Fraction(0)
            coeffs[e] = CC(re, im)
            coeffs[mirror] = CC(re, -im)
    return Polynomial(COMPLEX, RATIONAL, order, coeffs)


@st.composite
def real_chart_polynomials(draw, degrees=range(7),
                           fields=(RATIONAL, quad_field(2))):
    """Real-chart polynomials with real coefficients over one of ``fields``.

    Up to eight terms of the given degrees, order max(degrees).
    """
    field = draw(st.sampled_from(fields))

    def value():
        a = Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 6)))
        if field == RATIONAL:
            return a
        return QuadExt(a, Fraction(draw(st.integers(-9, 9)),
                                   draw(st.integers(1, 6))), field.d)

    exps = draw(st.lists(
        st.sampled_from([e for d in degrees for e in all_exponents(d)]),
        max_size=8, unique=True))
    return Polynomial(REAL, field, max(degrees),
                      {e: CC(value()) for e in exps})


# (u, ubar, v, vbar) in (y1, y2, x1, x2): u = y1 + i y2, v = x1 + i x2
UV_TO_REAL = ((1, CC(0, 1), 0, 0), (1, CC(0, -1), 0, 0),
              (0, 0, 1, CC(0, 1)), (0, 0, 1, CC(0, -1)))


@st.composite
def zp_invariant_terms(draw, order=6, ps=(3, 4, 5, 6)):
    """(p, H): real-chart Z_p-invariant terms of degree 3..``order`` over Q,
    p drawn from ``ps``.

    Each term u^a ubar^b v^c vbar^d has phase a - b + c - d = 0 mod p and
    comes with its mirror (b, a, d, c) and the conjugate coefficient, so
    H is real once written in (y1, y2, x1, x2).  The first term has a
    nonzero phase, so H is not invariant under every rotation.
    """
    phase = {e: e[0] - e[1] + e[2] - e[3]
             for s in range(3, order + 1) for e in all_exponents(s)}
    p = draw(st.sampled_from([p for p in ps
                              if any(ph and ph % p == 0
                                     for ph in phase.values())]))
    allowed = [e for e, ph in phase.items() if ph % p == 0]
    terms = {}
    for e in [draw(st.sampled_from([e for e in allowed if phase[e]]))] + \
            draw(st.lists(st.sampled_from(allowed), max_size=3)):
        if e in terms:
            continue
        mirror = (e[1], e[0], e[3], e[2])
        re = draw(st.integers(-3, 3) if terms else st.integers(1, 3))
        im = 0 if mirror == e else draw(st.integers(-3, 3))
        terms[e] = CC(Fraction(re), Fraction(im))
        terms[mirror] = CC(Fraction(re), Fraction(-im))
    return p, oracle_linear_substitute(
        Polynomial(REAL, RATIONAL, order, terms), UV_TO_REAL)


# ---------------------------------------------------------------------------
# independent oracles
# ---------------------------------------------------------------------------


def oracle_apply_D(p: Polynomial, alpha):
    """D by the product rule: D = -i sum_j a_j (z_j d/dz_j - zb_j d/dzb_j).

    Implemented monomial by monomial with explicit differentiation (exponent
    drop and coefficient multiply), never through the eigenvalue shortcut.
    """
    field = p.field
    out = Polynomial.zero(COMPLEX, field, p.order)
    for j in range(2):
        a_j = field.coerce(alpha[j])
        # z_j * d/dz_j keeps exponents; build via explicit diff then remultiply
        dz = p.diff(j)
        dzb = p.diff(2 + j)
        zf = Polynomial.monomial(COMPLEX, tuple(1 if i == j else 0 for i in range(4)),
                                 1, field, p.order)
        zbf = Polynomial.monomial(COMPLEX, tuple(1 if i == 2 + j else 0 for i in range(4)),
                                  1, field, p.order)
        term = (zf * dz - zbf * dzb).scale(CC(field.zero(), -a_j))
        out = out + term
    return out


def oracle_split_solve(p: Polynomial, alpha):
    """(kernel, image, G) by scanning the differentiated action of D.

    A monomial goes to the kernel iff its image under ``oracle_apply_D``
    vanishes; G is assembled by dividing each image monomial by its observed
    (differentiated, not formulaic) eigenvalue.
    """
    field = p.field
    ker = {}
    img = {}
    g = {}
    for e, c in p.coeffs.items():
        mono = Polynomial(COMPLEX, field, p.order, {e: CC(field.one())})
        action = oracle_apply_D(mono, alpha)
        if action.is_zero():
            ker[e] = c
        else:
            lam = action.coeffs[e]     # observed eigenvalue as a CC
            img[e] = c
            g[e] = CC(field.zero()) - c / lam
    return (Polynomial(COMPLEX, field, p.order, ker),
            Polynomial(COMPLEX, field, p.order, img),
            Polynomial(COMPLEX, field, p.order, g))


def poisson_bracket(p: Polynomial, q: Polynomial) -> Polynomial:
    """{p, q} for the symplectic form dy1^dx1 + dy2^dx2, as one sum of
    factor pairs in the product kernel.

    Convention: {f, g} = sum_j d_{y_j} f d_{x_j} g - d_{x_j} f d_{y_j} g,
    so {H, f} is the derivative of f along the flow of H and {y1, x1} = 1;
    on the complex chart {f, g} = 2i sum_j (d_{z_j} f d_{zb_j} g -
    d_{zb_j} f d_{z_j} g).  The result is cut at min(order_p, order_q),
    which is exact: deg {p, q} = deg p + deg q - 2.
    """
    field = p._check_compatible(q)
    two = 1 if p.chart == REAL else CC(0, 2)
    entries = []
    for j in range(2):
        entries.append((p.diff(j), q.diff(2 + j).scale(two)))
        entries.append((p.diff(2 + j), q.diff(j).scale(-two)))
    return sum_of_products(entries, min(p.order, q.order), field, p.chart)


def _image_terms(p: Polynomial, alpha) -> dict:
    """{exps: (coefficient, alpha.(k - l))} of the complex-chart terms of
    ``p`` with a nonzero D-eigenvalue."""
    a1, a2 = (p.field.coerce(a) for a in alpha)
    out = {}
    for e, c in to_complex(p).coeffs.items():
        ev = a1 * (e[0] - e[2]) + a2 * (e[1] - e[3])
        if ev != 0:
            out[e] = c, ev
    return out


def oracle_lie_normalize(h: Polynomial, N: int, alpha) -> NormalFormResult:
    """The im-D normal form of ``h`` through degree ``N`` by Lie series
    (Deprit 1969, Celest. Mech. 1:12; Hori 1966, PASJ 18:287).

    For s = 3..N, W_s solves -D W_s = L, L the image part of the current
    degree-s terms, coefficient by coefficient: w = -i c / (alpha.(k - l))
    on every monomial with a nonzero eigenvalue.  Then H <- exp(ad W_s) H
    = sum_k {...{H, W_s}..., W_s} / k! through degree N, every term a
    bracket, never a generating function or a map composition; each step
    asserts that it left no image term at degree s.  The result carries
    no steps, so no transform.
    """
    field = h.field
    work = (to_real(h) if h.chart == COMPLEX else h).truncate(N)
    for s in range(3, N + 1):
        w = {e: c * CC(field.zero(), -1 / ev)
             for e, (c, ev) in _image_terms(work.homogeneous_part(s),
                                            alpha).items()}
        if not w:
            continue
        W = to_real(Polynomial(COMPLEX, field, N, w))
        term, k = work, 0
        while not term.is_zero():       # each bracket adds s - 2 degrees
            k += 1
            term = poisson_bracket(term, W).scale(Fraction(1, k))
            work = work + term
        assert not _image_terms(work.homogeneous_part(s), alpha)
    return NormalFormResult(h_n=to_complex(work), generators=[], alpha=alpha,
                            res=resonance_pair(tuple(alpha)), order=N)


def oracle_invert_generating(G: Polynomial, order: int) -> TruncatedMap:
    """(y, x) from xi = x + dG/deta, y = eta + dG/dx, all passes at ``order``."""
    s = G.total_degree()
    d_eta = [G.diff(i).truncate(order) for i in (0, 1)]
    d_x = [G.diff(i).truncate(order) for i in (2, 3)]
    ident = TruncatedMap.identity(G.field, order).components
    x = ident[2:]
    for _ in range(-((order - 1) // -(s - 2)) + 1):
        cur = TruncatedMap(ident[:2] + x, order)
        x = [a - b for a, b in zip(ident[2:], compose_many(d_eta, cur, order))]
    cur = TruncatedMap(ident[:2] + x, order)
    y = [a + b for a, b in zip(ident[:2], compose_many(d_x, cur, order))]
    return TruncatedMap(y + x, order)


def oracle_mul(a: Polynomial, b: Polynomial, order: int | None = None):
    """a * b truncated at ``order`` (default: the smaller operand order).

    Every coefficient pair is visited, with no degree-sorted early exit.
    """
    field = a.field.join(b.field)
    a, b = a.promote(field), b.promote(field)
    if order is None:
        order = min(a.order, b.order)
    out = {}
    for ea, ca in a.coeffs.items():
        for eb, cb in b.coeffs.items():
            e = tuple(i + j for i, j in zip(ea, eb))
            if sum(e) <= order:
                out[e] = out[e] + ca * cb if e in out else ca * cb
    return Polynomial(a.chart, field, order, out)


def canonical_den(coeffs) -> int:
    """lcm of the reduced denominators of every rational part of coeffs."""
    den = 1
    for c in coeffs.values():
        for x in (c.re, c.im):
            for f in ((x.a, x.b) if isinstance(x, QuadExt) else (x,)):
                den = math.lcm(den, Fraction(f).denominator)
    return den


def _cut(coeffs: dict, order: int):
    """(nonzero coefficients of degree <= order, order)."""
    return {e: c for e, c in coeffs.items()
            if sum(e) <= order and not c.is_zero()}, order


def oracle_add(a: Polynomial, b: Polynomial, sign: int = 1):
    """(coefficients, order) of a + sign * b."""
    out = dict(a.coeffs)
    for e, c in b.coeffs.items():
        c = c if sign > 0 else -c
        out[e] = out[e] + c if e in out else c
    return _cut(out, min(a.order, b.order))


def oracle_scale(p: Polynomial, s):
    return _cut({e: c * s for e, c in p.coeffs.items()}, p.order)


def oracle_diff(p: Polynomial, var: int):
    out = {}
    for e, c in p.coeffs.items():
        if e[var]:
            out[tuple(k - (i == var) for i, k in enumerate(e))] = c * e[var]
    return _cut(out, p.order)


def oracle_truncate(p: Polynomial, order: int):
    return _cut(dict(p.coeffs), order)


def oracle_homogeneous_part(p: Polynomial, s: int):
    return _cut({e: c for e, c in p.coeffs.items() if sum(e) == s}, p.order)


def oracle_zp_invariance(h: Polynomial, p: int) -> bool:
    """H o R = H for R rotating (y1, y2) and (x1, x2) by 2 pi / p, exactly.

    With u = y1 + i y2 and v = x1 + i x2, R multiplies u and v by
    e^{2 pi i/p}, so u^a ubar^b v^c vbar^d picks up the phase of
    (a - b + c - d) steps.  Reordering the slots to (y2, x2, y1, x1) makes
    the exact chart change produce exactly those monomials.
    """
    hr = to_real(h) if h.chart == COMPLEX else h
    swapped = Polynomial(REAL, hr.field, hr.order,
                         {(e[1], e[3], e[0], e[2]): c
                          for e, c in hr.coeffs.items()})
    return all((e[0] - e[2] + e[1] - e[3]) % p == 0
               for e in to_complex(swapped).coeffs)


def map_commutes(phi: TruncatedMap, r) -> bool:
    """True iff phi o R = R o phi for the diagonal sign map R = diag(r).

    Component i of phi must be odd or even under R as r_i says: every
    monomial y1^a y2^b x1^c x2^d of it has r1^a r2^b r3^c r4^d = r_i.
    """
    return all(math.prod(s ** k for s, k in zip(r, e)) == ri
               for ri, comp in zip(r, phi.components) for e in comp.coeffs)


def oracle_compose(p: Polynomial, phi: TruncatedMap, order: int):
    """p o phi = sum_beta d^beta p N^beta / beta!, truncated at ``order``.

    Every multi-index with |beta| <= order is visited, with no pruning:
    d^beta p comes from chained ``diff`` calls, N^beta from ``*`` and the
    term from ``scale`` and ``*``.
    """
    field = p.field.join(phi.field)
    q = p.truncate(order).promote(field)
    nlin = []
    for i, comp in enumerate(phi.components):
        e = tuple(int(i == j) for j in range(4))
        nlin.append(comp.truncate(order).promote(field)
                    - Polynomial.monomial(REAL, e, 1, field, order))
    out = Polynomial.zero(REAL, field, order)
    for beta in (b for d in range(order + 1) for b in all_exponents(d)):
        dp, power = q, Polynomial.monomial(REAL, (0, 0, 0, 0), 1, field, order)
        for j in range(4):
            for _ in range(beta[j]):
                dp = dp.diff(j)
                power = power * nlin[j]
        fact = math.prod(math.factorial(k) for k in beta)
        out = out + (dp * power).scale(Fraction(1, fact))
    return out


_BASIS = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


def oracle_linear_substitute(p: Polynomial, matrix, field=None) -> Polynomial:
    """p(M . v) on p's chart for any 4x4 ``matrix`` of field elements or CC
    pairs of them, row i the image of old variable i, over ``field``
    (default p's): memoized powers of the four images are multiplied out."""
    field = field or p.field
    p = p.promote(field)
    order, chart = p.order, p.chart
    images = [Polynomial(chart, field, order, dict(zip(_BASIS, row)))
              for row in matrix]
    one = Polynomial.monomial(chart, (0, 0, 0, 0), 1, field, order)
    terms = list(p.coeffs.items())
    pows = [[one] for _ in range(4)]
    for i in range(4):
        for _ in range(max((e[i] for e, _ in terms), default=0)):
            pows[i].append(pows[i][-1] * images[i])
    # pair slot 0 with the slot whose image has the same variables, so the
    # two factors of each fused product below have disjoint supports
    supp = [im.coeffs.keys() for im in images]
    b = next((j for j in (1, 2, 3) if supp[j] == supp[0]), 1)
    c, d = (j for j in (1, 2, 3) if j != b)
    # pair products memoized; each term is then one scaled product
    front, back, entries = {}, {}, []
    for e, coeff in terms:
        key_f, key_b = (e[0], e[b]), (e[c], e[d])
        if key_f not in front:
            front[key_f] = pows[0][e[0]] * pows[b][e[b]]
        if key_b not in back:
            back[key_b] = pows[c][e[c]] * pows[d][e[d]]
        entries.append((front[key_f].scale(coeff), back[key_b]))
    return sum_of_products(entries, order, field, chart)


def oracle_pullback_form(phi: TruncatedMap, order: int) -> dict:
    """{(i, j): K_ij}, i < j, of K = (DPhi)^T J (DPhi) through degree
    ``order`` - 1, from the 24 products of the Jacobian entries
    M_ki = d_i Phi_k cut at that degree."""
    cut = order - 1
    M = [[comp.diff(j).truncate(cut) for j in range(4)]
         for comp in phi.components]
    return {(i, j): ((M[2][i] * M[0][j] - M[0][i] * M[2][j])
                     + (M[3][i] * M[1][j] - M[1][i] * M[3][j]))
            for i in range(4) for j in range(i + 1, 4)}


_HALF = Fraction(1, 2)
_I, _I_HALF = CC(0, 1), CC(0, _HALF)
# y_j = (z_j - zb_j)/(2i) = -i/2 z_j + i/2 zb_j, x_j = (z_j + zb_j)/2
_TO_COMPLEX = ((-_I_HALF, 0, _I_HALF, 0), (0, -_I_HALF, 0, _I_HALF),
               (_HALF, 0, _HALF, 0), (0, _HALF, 0, _HALF))
# z_j = x_j + i y_j, zb_j = x_j - i y_j
_TO_REAL = ((_I, 0, 1, 0), (0, _I, 0, 1), (-_I, 0, 1, 0), (0, -_I, 0, 1))


def _relabel(p: Polynomial, chart: str) -> Polynomial:
    return Polynomial(chart, p.field, p.order, dict(p.coeffs))


def oracle_to_complex(p: Polynomial) -> Polynomial:
    """The chart change to z, zbar as one general 4x4 substitution, never
    the per-plane integer rows."""
    assert p.chart == REAL
    return _relabel(oracle_linear_substitute(p, _TO_COMPLEX), COMPLEX)


def oracle_to_real(p: Polynomial) -> Polynomial:
    """The chart change to y, x by the same substitution; the imaginary
    residue of a non-real-valued input is named at its lowest key."""
    assert p.chart == COMPLEX
    q = _relabel(oracle_linear_substitute(p, _TO_REAL), REAL)
    residue = [e for e, c in q.coeffs.items() if c.im != 0]
    if residue:
        raise ValueError("to_real of a non-real-valued polynomial "
                         f"(imaginary residue at {residue[0]})")
    return q


def oracle_psi_matrix(field):
    """Real-chart matrix of Psi over ``field`` joined with Q(sqrt 2).

    Psi(y1, y2, x1, x2) = 2^{-1/2} (y1 + y2, x1 - x2, x1 + x2, y2 - y1);
    row i is the image of old variable i, as ``oracle_linear_substitute``
    reads it.
    """
    fld = field.join(quad_field(2))
    r = fld.coerce(QuadExt(0, Fraction(1, 2), 2))  # 1/sqrt(2) = sqrt(2)/2
    z = fld.zero()
    return [[r, r, z, z], [z, z, r, -r], [z, z, r, r], [-r, r, z, z]], fld


def oracle_psi(h: Polynomial) -> Polynomial:
    """H o Psi by one real-chart substitution over Q(sqrt 2).

    A complex-chart input goes to the real chart and back.  A rational
    input comes back over Q when every coefficient of the result is
    rational.
    """
    hr = to_real(h) if h.chart == COMPLEX else h
    m, fld = oracle_psi_matrix(hr.field)
    out = oracle_linear_substitute(hr, m, fld)
    if hr.field == RATIONAL and all(c.re.b == 0 and c.im.b == 0
                                    for c in out.coeffs.values()):
        out = Polynomial(REAL, RATIONAL, out.order,
                         {e: CC(c.re.a, c.im.a) for e, c in out.coeffs.items()})
    return to_complex(out) if h.chart == COMPLEX else out


def oracle_an_decompose(h_n: Polynomial, res) -> SimpleNamespace:
    """Peel sigma powers off a kernel polynomial.

    ``quadratic`` holds the degree-2 terms as {exps: CC}; ``a0`` the k = l
    terms of degree >= 3 and ``blocks[n]`` the terms with
    k - l = n (m1, m2), n >= 1, both as {(k1, k2): CC} over the radial
    exponents left once sigma^n = z2^{n m2} zbar1^{n |m1|} is divided out.
    The blocks n < 0 are the conjugates and are left implied.  The input
    must be a real-valued complex-chart polynomial in ker D.
    """
    if h_n.chart != COMPLEX:
        raise ValueError("the kernel form must be on the complex chart")
    if not h_n.is_real_valued():
        raise ValueError("the kernel form must be real-valued")
    quad, a0, blocks = {}, {}, {}
    for e, c in h_n.coeffs.items():
        k1, k2, l1, l2 = e
        dk1, dk2 = k1 - l1, k2 - l2
        if res.nonresonant:
            n = 0 if dk1 == dk2 == 0 else None
        else:
            n = dk1 // res.m1 if dk1 % res.m1 == 0 else None
            if n is not None and dk2 != n * res.m2:
                n = None
        if n is None:
            raise ValueError(f"monomial {e} is not in ker D for m = {res.label()}")
        if sum(e) == 2:
            quad[e] = c
        elif n == 0:
            a0[(k1, k2)] = c
        elif n > 0:
            blocks.setdefault(n, {})[(k1, l2)] = c
    return SimpleNamespace(res=res, quadratic=quad, a0=a0, blocks=blocks,
                           order=h_n.order, field=h_n.field)


def oracle_reassemble(dec) -> Polynomial:
    """H2 + A0 + sum_n (sigma^n An + conj) of an ``oracle_an_decompose``
    result."""
    am1, m2 = -dec.res.m1, dec.res.m2
    out = dict(dec.quadratic)
    for (k1, k2), c in dec.a0.items():
        out[(k1, k2, k1, k2)] = c
    for n, block in dec.blocks.items():
        for (k1, k2), c in block.items():
            e = (k1, k2 + n * m2, k1 + n * am1, k2)
            out[e] = c
            out[(e[2], e[3], e[0], e[1])] = c.conj()
    return Polynomial(COMPLEX, dec.field, dec.order, out)


def oracle_poincare_brackets(ham, orbit, frame_phase=0.0, rtol=1e-10):
    """[(lo, hi)] after n = 1, 2, 4, 8 periods of the winding equation.

    theta' = (V3, L V3) + (c, s) [(Vi, L Vj)] (c, s)^T with (V1, V2) turned
    by ``frame_phase``, integrated from 16 starting angles in [0, pi) at
    once; lo and hi bound the mean displacements (theta(nT) - theta)/(2 pi n).
    """
    th0 = math.pi * np.arange(16) / 16
    cp, sp = math.cos(frame_phase), math.sin(frame_phase)

    def rhs(_t, y):
        g = ham.grad(y[:4])
        fr = quaternion_frame(g)
        v1 = cp * fr.v1 + sp * fr.v2
        v2 = -sp * fr.v1 + cp * fr.v2
        L = np.asarray(ham.hess(y[:4]))
        c, s = np.cos(y[4:]), np.sin(y[4:])
        dth = (fr.v3 @ L @ fr.v3 + c * c * (v1 @ L @ v1)
               + 2.0 * c * s * (v1 @ L @ v2) + s * s * (v2 @ L @ v2))
        return np.concatenate(((-g[2], -g[3], g[0], g[1]), dth))

    sol = solve_ivp(rhs, (0.0, 8 * orbit.period),
                    np.concatenate([orbit.point, th0]), method="DOP853",
                    rtol=rtol, atol=rtol * 1e-2,
                    t_eval=[n * orbit.period for n in (1, 2, 4, 8)])
    assert sol.success, sol.message
    out = []
    for i, n in enumerate((1, 2, 4, 8)):
        d = (sol.y[4:, i] - th0) / (2.0 * math.pi * n)
        out.append((float(d.min()), float(d.max())))
    return out


_J = np.array([[0.0, 0.0, -1.0, 0.0], [0.0, 0.0, 0.0, -1.0],
               [1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]])


def oracle_stm_rhs(ham, y) -> np.ndarray:
    """The flow and its state-transition matrix, y = (w, M row by row):
    (J grad H, J L M) with L the Hessian, by numpy's 4x4 products."""
    w = y[:4]
    g = ham.grad(w)
    L = np.asarray(ham.hess(w))
    M = np.asarray(y[4:]).reshape(4, 4)
    dM = _J @ L @ M
    return np.concatenate([[-g[2], -g[3], g[0], g[1]], dM.ravel()])


def oracle_hessian(poly: Polynomial):
    """The compiled Hessian of a real-coefficient polynomial, each of the
    16 entries d_j d_i H its own expression."""
    if poly.chart != REAL:
        poly = to_real(poly)
    grads = [poly.diff(i) for i in range(4)]
    rows = ["(" + ", ".join(_poly_expr(grads[i].diff(j))
                            for j in range(4)) + ")" for i in range(4)]
    return _codegen("h_hess", "(" + ", ".join(rows) + ")")


def oracle_substitute(outer: SeriesE, inner: SeriesE) -> SeriesE:
    """outer(inner) as sum_k c_k inner^k + O(inner^t), t = outer's tail."""
    field = outer.field.join(inner.field)
    v = inner.valuation()
    if v == math.inf:
        v = inner.err_order
    t = outer.err_order
    tail = t if t in (0, math.inf) else t * v      # the order of inner^t
    total = SeriesE.zero(field, tail)
    power = SeriesE.constant(1, field)
    for c in outer.coeffs:
        total = total + power * SeriesE.constant(c, field)
        power = power * inner
    return total


def oracle_amplitude_series(nf, axis: int, K: int | None = None) -> SeriesE:
    """u from E = (alpha_j/2) u + A0|axis(u): floor(N/2) passes at full order."""
    cap = nf.order // 2
    K = cap if K is None else K
    field = nf.field
    a_j = field.coerce(nf.alpha.alpha1 if axis == 1 else nf.alpha.alpha2)
    radial = [nf.coefficient((k, 0, k, 0) if axis == 1 else (0, k, 0, k)).re
              for k in range(cap + 1)]
    tail = SeriesE(field, radial, cap + 1)
    e_series = SeriesE.identity(field, cap + 1)
    scale = SeriesE.constant(field.coerce(2) / a_j, field)
    u = e_series * scale
    for _ in range(cap):
        u = (e_series - oracle_substitute(tail, u)) * scale
    return u.truncate(K + 1)


def sympy_vars():
    import sympy
    return sympy.symbols("y1 y2 x1 x2")


def poly_to_sympy(p: Polynomial, variables):
    import sympy
    expr = sympy.Integer(0)
    for e, c in p.coeffs.items():
        if not c.is_real():
            raise ValueError("sympy oracle handles real polynomials")
        term = sympy.Rational(Fraction(c.re))
        for v, k in zip(variables, e):
            term *= v ** k
        expr += term
    return sympy.expand(expr)


def sympy_bracket(p: Polynomial, q: Polynomial, order: int | None = None):
    import sympy
    y1, y2, x1, x2 = sympy_vars()
    fp = poly_to_sympy(p, (y1, y2, x1, x2))
    fq = poly_to_sympy(q, (y1, y2, x1, x2))
    expr = (sympy.diff(fp, y1) * sympy.diff(fq, x1)
            - sympy.diff(fp, x1) * sympy.diff(fq, y1)
            + sympy.diff(fp, y2) * sympy.diff(fq, x2)
            - sympy.diff(fp, x2) * sympy.diff(fq, y2))
    expr = sympy.expand(expr)
    if order is not None and expr != 0:
        out = sympy.Integer(0)
        poly = sympy.Poly(expr, y1, y2, x1, x2)
        for monom, coeff in poly.terms():
            if sum(monom) <= order:
                term = coeff
                for v, k in zip((y1, y2, x1, x2), monom):
                    term *= v ** k
                out += term
        expr = sympy.expand(out)
    return expr


def sympy_compose(p: Polynomial, phi, order):
    """p o phi through degree ``order`` in sympy: each monomial of p is a
    product of memoized powers of the images, and every product is cut at
    ``order`` as soon as it is formed."""
    import sympy
    variables = sympy_vars()

    def poly(expr):
        return sympy.Poly(expr, *variables, domain="QQ")

    def cut(q):
        return sympy.Poly.from_dict(
            {m: c for m, c in q.as_dict().items() if sum(m) <= order},
            *variables, domain="QQ")

    images = [cut(poly(poly_to_sympy(c, variables))) for c in phi.components]
    powers = [[poly(1)] for _ in images]
    out = poly(0)
    for monom, coeff in poly(poly_to_sympy(p, variables)).terms():
        term = poly(coeff)
        for pows, image, k in zip(powers, images, monom):
            while len(pows) <= k:
                pows.append(cut(pows[-1] * image))
            term = cut(term * pows[k])
        out += term
    return sympy.expand(out.as_expr())


@pytest.fixture
def rng():
    return random.Random(20260810)


@pytest.fixture
def freqs12():
    return Frequencies(Fraction(1), Fraction(2))


@pytest.fixture
def freqs11():
    return Frequencies(Fraction(1), Fraction(1))
