"""50-digit mpmath references for the kernels timed by ``kernel-bands``.

Each reference is the textbook definition, written independently of the
package's t-space rewrites; the generalized logarithmic mean goes through
logarithms so that ratios near 1e300 do not need huge powers.

``TOLERANCE`` is the relative tolerance the unit tests in
``tests/test_means.py`` use when they compare that kernel with an mpmath
oracle: 1e-12 for the transcendental kernels (the Seiffert, Neuman–Sándor
and generalized logarithmic stability tests), 1e-15 for the algebraic ones
(the frozen-value and vectorised tests).
"""

from __future__ import annotations

import mpmath as mp

DPS = 50


def _glog(p):
    def ref(a, b):
        if p == 0:
            return mp.exp((b * mp.log(b) - a * mp.log(a)) / (b - a) - 1)
        if p == -1:
            return (b - a) / (mp.log(b) - mp.log(a))
        q = mp.mpf(p)
        return mp.exp(mp.log((mp.power(b, q + 1) - mp.power(a, q + 1)) / ((q + 1) * (b - a))) / q)

    return ref


def references(p0: float) -> dict:
    """Reference function per kernel label; each takes two mpf arguments."""
    return {
        "A": lambda a, b: (a + b) / 2,
        "G": lambda a, b: mp.sqrt(a * b),
        "H": lambda a, b: 2 * a * b / (a + b),
        "Cbar": lambda a, b: 2 * (a * a + a * b + b * b) / (3 * (a + b)),
        "C": lambda a, b: (a * a + b * b) / (a + b),
        "P": lambda a, b: (a - b) / (4 * mp.atan(mp.sqrt(a / b)) - mp.pi),
        "T": lambda a, b: (a - b) / (2 * mp.atan((a - b) / (a + b))),
        "Q": lambda a, b: mp.sqrt((a * a + b * b) / 2),
        "M": lambda a, b: (a - b) / (2 * mp.asinh((a - b) / (a + b))),
        "CH": lambda a, b: (a - b) ** 2 / (a + b),
        "L-1": _glog(-1),
        "L0": _glog(0),
        "L2": _glog(2),
        "Lp0": _glog(p0),
    }


TOLERANCE = {
    "A": 1e-15, "G": 1e-15, "H": 1e-15, "Cbar": 1e-15, "C": 1e-15, "Q": 1e-15, "CH": 1e-15,
    "P": 1e-12, "T": 1e-12, "M": 1e-12,
    "L-1": 1e-12, "L0": 1e-12, "L2": 1e-12, "Lp0": 1e-12,
}


def reference_values(ref, a, b) -> list[float]:
    """ref(a[i], b[i]) at DPS digits, rounded to doubles."""
    with mp.workdps(DPS):
        return [float(ref(mp.mpf(float(x)), mp.mpf(float(y)))) for x, y in zip(a, b)]
