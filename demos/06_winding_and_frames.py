"""The scalar winding oracle and the quaternion frame.

theta' = a + b cos(theta) either locks (|a| <= |b|: fixed points exist,
asymptotic rate 0) or rotates with rate sign(a) sqrt(a^2 - b^2); this is
the scalar mechanism behind the locked/unlocked rotation-number branches.
The quaternion frame provides the global trivialization those rotation
numbers are measured in.
"""

import numpy as np

from bgnf.numeric import quaternion_frame, winding_rate_grid

print("scalar winding equation theta' = a + b cos theta")
print(f"{'a':>6} {'b':>6} {'closed form':>14} {'numeric':>14}")
pairs, numeric, closed = winding_rate_grid([-2.0, 0.3, 1.0, 2.0, 3.0],
                                           [0.3, 0.5, 1.0, 2.0],
                                           horizon=6000.0)
for (a, b), got, want in zip(pairs, numeric, closed):
    print(f"{a:>6.2f} {b:>6.2f} {want:>14.6f} {got:>14.6f}")

print()
print("quaternion frame from a gradient (V0 || grad H, V3 || J grad H):")
g = (0.0, 0.0, 1.0, 0.0)
fr = quaternion_frame(g)
for name, v in (("V0", fr.v0), ("V1", fr.v1), ("V2", fr.v2), ("V3", fr.v3)):
    print(f"  {name} = {v}")
print("Gram defect:", fr.gram_defect())

rng = np.random.default_rng(1)
worst = 0.0
for _ in range(100):
    g = rng.normal(size=4)
    fr = quaternion_frame(g)
    v1, v2 = fr.v1, fr.v2
    omega = v1[0] * v2[2] - v1[2] * v2[0] + v1[1] * v2[3] - v1[3] * v2[1]
    worst = max(worst, abs(omega - 1.0), fr.gram_defect())
print("max deviation of omega0(V1, V2) from 1 and of the Gram matrix "
      f"from the identity over 100 random gradients: {worst:.2e}")
