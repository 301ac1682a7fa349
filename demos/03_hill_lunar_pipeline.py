"""The regularized lunar problem to order six, in both gauges.

The degree-6 polynomial obtained from the Levi-Civita regularization is
normalized in the canonical image-of-D gauge and then conjugated into the
coordinates that separate the direct and retrograde orbits.  The result
coincides exactly, coefficient for coefficient, with the order-6 form
obtained independently by torus averaging, so the second-order twist data
(beta1 = beta2 = 13/4, product 1 + 36E^2) is gauge-independent here in the
strongest sense.
"""

from bgnf import hopf
from bgnf.models import hill_regularized

from _pretty import pretty

m = hill_regularized()
print("H =", pretty(m.poly))
print()

nf_psi, _ = m.analysis_form(6)
print("canonical gauge + Psi:", pretty(nf_psi.h_n))
print()
print("built-in averaged form:", pretty(m.averaged_form.h_n))
print()
print("identical:", nf_psi.h_n == m.averaged_form.h_n)

ana = m.analysis(6)
print()
print("Omega_{2,1}, Omega_{2,2}, Omega_2 =",
      ana.omega_nu1, ana.omega_nu2, ana.omega_nu)
print("beta1, beta2 =", ana.beta1, ana.beta2)
u1 = hopf.amplitude_series(ana.nf, 1)
u2 = hopf.amplitude_series(ana.nf, 2)
w1, w2, hw1, hw2 = hopf.frequency_series(ana.nf)
print("c1(E)^2 =", u1)
print("c2(E)^2 =", u2)
print("omega1(E) =", w1, "   hat omega2(E) =", hw2)
print("rho1(E) =", ana.rho1, "   (direct orbit)")
print("rho2(E) =", ana.rho2, "   (retrograde orbit)")
print("(rho1-1)(rho2-1) =", ana.product)
print()
print("verdict:", ana.verdict.describe())
print()
e = 1e-3
c_h = m.energy_maps["jacobi_from_energy"](e)
print(f"E = {e:g} corresponds to Jacobi constant c_H = {c_h:.4f}")
