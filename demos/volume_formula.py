"""
Covolume of the norm-one unit group
===================================

Over a totally real field k of degree n, Borel's coarea formula
8 pi d_k^(3/2) zeta_k(2) prod(N - 1) / (4 pi^2)^n becomes
2^(3 - n) pi |zeta_k(-1)| prod(N - 1) through the functional equation
d_k^(3/2) zeta_k(2) = (2 pi^2)^n |zeta_k(-1)|. zeta_k(-1) is rational, so
every coarea is an exact multiple of pi. Over Q, zeta(-1) = -1/12 gives the
closed form (pi/3) prod(p - 1) over the finite ramified primes.
"""

import math
from fractions import Fraction

import numpy as np

from commcensus.quaternion import RamSet, coarea_general, coarea_rational, zeta_k_minus1

# Exact rational multiples of pi for a few ramification sets over Q.
for primes in [(), (2, 3), (3, 17), (2, 3, 5, 7)]:
    ram = RamSet(primes)
    exact = coarea_rational(ram)
    print(f"Ram = {str(ram):12s} coarea = {str(exact):10s} ~ {float(exact):.9f}")

# The general formula in degree 1, zeta(-1) = -1/12: the closed form again.
for primes in [(), (3, 17)]:
    general = coarea_general(1, Fraction(-1, 12), primes)
    print(f"degree 1 vs rational for {primes}: {general} vs {coarea_rational(RamSet(primes))}")

# Degree 2: k = Q(sqrt(5)), zeta_k(-1) = 1/30 by the Cohen-Zagier divisor sum.
# With no finite ramification the coarea is 2 pi / 30 = pi / 15.
zm1 = zeta_k_minus1(5)
print("zeta_k(-1) for disc 5:", zm1)
print("coarea over Q(sqrt(5)):", coarea_general(2, zm1, []))

# Degree 3: the cubic field of discriminant 49 has zeta_k(-1) = -1/21.
print("coarea over the cubic field of disc 49:", coarea_general(3, Fraction(-1, 21), []))

# A float check on the identity, not a code path: zeta_k(2) = zeta(2) L(2, chi_5)
# summed directly to N terms (tail below zeta(2) * 2 * 5 / N^2), against
# 4 pi^4 zeta_k(-1) / 5^1.5 from the functional equation.
N = 10**6
chi5 = np.array([0, 1, -1, -1, 1])  # the Legendre symbol mod 5
ns = np.arange(1, N + 1)
direct = math.pi**2 / 6 * float(np.sum(chi5[ns % 5] / ns.astype(np.float64) ** 2))
print(f"zeta_k(2) for disc 5, direct sum: {direct:.12f}")
print(f"zeta_k(2) for disc 5, identity  : {4 * math.pi**4 * float(zm1) / 5**1.5:.12f}")
