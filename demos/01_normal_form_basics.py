"""Walk through the exact polynomial engine on a worked example.

Builds the Henon-Heiles Hamiltonian, shows the operator D acting on
monomials, splits a cubic into kernel + image, solves the homological
equation for the first generating polynomial, and runs the normalizer to
order 4, printing the exact rational coefficient table.
"""

from fractions import Fraction as F

from bgnf import (
    Polynomial,
    apply_D,
    invert_generating,
    normalize,
    solve_homological,
    split_ker_im,
    symplectic_defect,
    to_complex,
    to_real,
    write_polynomial,
)
from bgnf.models import henon_heiles
from bgnf.resonance import Frequencies, resonance_pair

from _pretty import pretty

print("=" * 72)
print("1. The Hamiltonian and its resonance")
print("=" * 72)
m = henon_heiles(order=4)
print("H =", pretty(m.poly))
res = resonance_pair((F(1), F(1)))
print("frequencies (1, 1)  ->  resonance generator", res.label())

print()
print("=" * 72)
print("2. The operator D on monomials (complex chart)")
print("=" * 72)
for exps in [(1, 0, 1, 0), (1, 1, 0, 0), (2, 0, 0, 1)]:
    mono = Polynomial.monomial("complex", exps, 1, order=6)
    image = apply_D(mono, (F(1), F(1)))
    print(f"D . {pretty(mono):<14} = {pretty(image)}")

print()
print("=" * 72)
print("3. Kernel/image split and the homological solve for the cubic part")
print("=" * 72)
h3 = to_complex(m.poly.homogeneous_part(3))
ker, img = split_ker_im(h3, res)
print("kernel part:", pretty(ker))
print("image part has", len(img.coeffs), "monomials")
g3 = to_real(solve_homological(img, (F(1), F(1))))
print("G3 =", pretty(g3))
phi3 = invert_generating(g3, 4)
print("symplectic defect of the induced map:", symplectic_defect(phi3, 4))

print()
print("=" * 72)
print("4. The full normal form to order 4")
print("=" * 72)
nf = normalize(m.poly, 4, Frequencies(F(1), F(1)))
print("Gamma^(3) =", pretty(nf.gamma(3)))
print("Gamma^(4) =", pretty(nf.gamma(4)))
print()
print("serialized (text format):")
print(write_polynomial(nf.h_n))
