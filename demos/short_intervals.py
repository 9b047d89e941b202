"""
Growth of the census in short volume windows
============================================

Fix the single trace 4 (the geodesic of Q(sqrt(3))) and watch the number
of commensurability classes of volume < V grow. The nonsplit primes form
a positive-density set, so each window (V, V + W] with W around V/10
picks up many new even products of (p - 1) factors.
"""

import math

from commcensus.census import pi_of_V, short_interval_delta
from commcensus.spectra import spectrum_from_inputs

spec = spectrum_from_inputs(traces=[4])

# The raw counting function at a few volumes.
for v in [10, 100, 1000, 10**4]:
    count, _ = pi_of_V(spec, v)
    print(f"pi(V={v:>6}) = {count}")

# Window deltas against the reference level W / (2 log V): the observed
# growth should dominate it once V is moderately large. The windows are
# counted without listing their classes, which keeps the V = 1e7 row cheap.
print()
print(f"{'V':>9} {'W':>8} {'delta':>7} {'bound':>9}  meets")
for v, w in [(10**4, 10**3), (10**5, 10**4), (10**6, 10**5), (10**7, 10**6)]:
    r = short_interval_delta(spec, v, w)
    print(
        f"{v:>9} {w:>8} {r.delta:>7} {r.bound:>9.1f}  {r.delta >= r.bound}"
    )

# For scale: the smallest classes realizing trace 4 at all, i.e. the
# even subsets of nonsplit primes with small prod(p - 1).
_, classes = pi_of_V(spec, 40)
for cls in classes:
    print("class", str(cls.ram), "at coarea", float(cls.coarea) / math.pi, "* pi")
