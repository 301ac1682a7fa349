"""The full symbolic pipeline on the Henon-Heiles system.

Normal form -> axis-mixing conjugation -> Omega coefficients -> rotation
number series -> twist product -> decision: clause (i) of the equal-
frequency theorem, with twist product 1 - 14E/3 + O(E^2), so every small
energy level carries infinitely many periodic orbits.
"""

from bgnf.models import henon_heiles
from bgnf.normalform import check_zp_invariance

from _pretty import pretty

m = henon_heiles(order=6)
print("H =", pretty(m.poly))
print("Z_3 invariant (Lagrangian-plane rotation):",
      check_zp_invariance(m.poly, 3))

nf = m.normal_form(6)
print()
print("normal form (canonical gauge), nonzero kernel coefficients:")
for e, c in sorted(nf.table.items()):
    print(f"  a{e} = {c!r}")

psi_nf, facts = m.analysis_form(6)
print()
print("after the axis-mixing map Psi (orbits now in coordinate planes):")
for e, c in sorted(psi_nf.table.items()):
    print(f"  a{e} = {c!r}")

ana = m.analysis(6)
print()
print("nu =", ana.nu)
print("Omega_{2,1} =", ana.omega_nu1, "  Omega_{2,2} =", ana.omega_nu2,
      "  Omega_2 =", ana.omega_nu)
print("rho1(E) =", ana.rho1)
print("rho2(E) =", ana.rho2)
print("(rho1-1)(rho2-1) =", ana.product)
print()
print("verdict:", ana.verdict.describe())
for line in ana.verdict.hypothesis_trace:
    print("   ", line)
