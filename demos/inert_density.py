"""
Counting primes inert in several fields at once
===============================================

A prime is nonsplit in s independent quadratic fields with density
1/2**s. Scanning a short interval [X, X + Y] and comparing the observed
count with (1/2**s) * Y / log X makes the density visible at desk scale.
"""

from commcensus.census import verify_chebotarev_interval
from commcensus.quadratic import field_from_d

one = [field_from_d(3)]
two = [field_from_d(3), field_from_d(17)]

# The last row sieves only the 16 classes mod 204 where both characters
# are -1, so 3e7 numbers near 1e9 take a fraction of a second.
ranges = [(10**4, 10**3), (10**5, 10**4), (10**6, 10**5)]
print(f"{'fields':>8} {'X':>10} {'Y':>8} {'actual':>7} {'predicted':>10} {'ratio':>7}")
for fields, tag, rows in [(one, "sqrt3", ranges), (two, "3,17", ranges + [(10**9, 3 * 10**7)])]:
    for x, y in rows:
        r = verify_chebotarev_interval(fields, x, y)
        print(
            f"{tag:>8} {x:>10} {y:>8} {r.actual:>7} {r.predicted:>10.1f} {r.ratio:>7.3f}"
        )

# Dependent characters are rejected: sqrt(30) lies in the compositum of
# the first three, so the inert-in-all density is not 1/16 and the scan
# refuses to pretend otherwise.
from commcensus.errors import DomainError

try:
    verify_chebotarev_interval([field_from_d(d) for d in (2, 3, 5, 30)], 10**5, 10**4)
except DomainError as exc:
    print("rejected:", exc)
