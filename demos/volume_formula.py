"""
Covolume of the norm-one unit group
===================================

Over the rationals the coarea of the quotient surface collapses to the
closed form (pi/3) * prod(p - 1) over the finite ramified primes. The
general-field formula needs the discriminant, the degree, zeta_k(2), and
the norms of the ramified primes; specialized back to Q it must agree.
Over a real quadratic field zeta_k(-1) is rational, so the coarea
2 pi zeta_k(-1) prod(N - 1) is again an exact multiple of pi.
"""

import math

from commcensus.quaternion import (
    PiMultiple,
    RamSet,
    coarea_general,
    coarea_rational,
    zeta_k2_real_quadratic,
    zeta_k_minus1,
)

# Exact rational multiples of pi for a few ramification sets.
for primes in [(), (2, 3), (3, 17), (2, 3, 5, 7)]:
    ram = RamSet(primes)
    exact = coarea_rational(ram)
    print(f"Ram = {str(ram):12s} coarea = {str(exact):10s} ~ {float(exact):.9f}")

# The general formula: 8 pi d^(3/2) zeta_k(2) / (4 pi^2)^n * prod(N - 1).
# Over Q: d = 1, n = 1, zeta(2) = pi**2 / 6, norms are the primes.
zeta_q2 = math.pi**2 / 6
for primes in [(), (3, 17)]:
    general = coarea_general(1, 1, zeta_q2, list(primes))
    exact = float(coarea_rational(RamSet(primes)))
    print(f"general vs rational for {primes}: {general:.12f} vs {exact:.12f}")

# A genuinely quadratic data point: k = Q(sqrt(5)) has discriminant 5 and
# zeta_k(2) = 2 pi**4 / (75 sqrt(5)). With no finite ramification the
# formula simplifies all the way down to pi / 15.
z5 = zeta_k2_real_quadratic(5)
print("zeta_k(2) for disc 5:", z5)
print("coarea over Q(sqrt(5)):", coarea_general(2, 5, z5, []))
print("pi / 15             :", math.pi / 15)

# The same value exactly: zeta_k(-1) = 1/30 by the Cohen-Zagier divisor sum,
# and zeta_k(2) above is 4 pi**4 zeta_k(-1) / 5**1.5.
zm1 = zeta_k_minus1(5)
print("zeta_k(-1) for disc 5:", zm1)
print("exact coarea over Q(sqrt(5)):", PiMultiple(2 * zm1))
