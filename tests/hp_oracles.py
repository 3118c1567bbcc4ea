"""Independent high-precision oracles for the test suite.

Everything here is computed with mpmath at 50 significant digits from
textbook formulas, deliberately written in *different* algebraic forms
than the package uses (difference quotients instead of ratio rewrites,
arctan instead of arcsin, and so on), so agreement is meaningful.
"""

from functools import partial

import mpmath as mp

DPS = 50


def _ctx():
    return mp.workdps(DPS)


def arith(a, b):
    with _ctx():
        return (mp.mpf(a) + mp.mpf(b)) / 2


def geom(a, b):
    with _ctx():
        return mp.sqrt(mp.mpf(a) * mp.mpf(b))


def harm(a, b):
    with _ctx():
        a, b = mp.mpf(a), mp.mpf(b)
        return 2 * a * b / (a + b)


def contra(a, b):
    with _ctx():
        a, b = mp.mpf(a), mp.mpf(b)
        return (a * a + b * b) / (a + b)


def centro(a, b):
    with _ctx():
        a, b = mp.mpf(a), mp.mpf(b)
        return 2 * (a * a + a * b + b * b) / (3 * (a + b))


def rootsq(a, b):
    with _ctx():
        a, b = mp.mpf(a), mp.mpf(b)
        return mp.sqrt((a * a + b * b) / 2)


def seiffert1(a, b):
    # (a - b) / (4 arctan sqrt(a/b) - pi), the arctan form.
    with _ctx():
        a, b = mp.mpf(a), mp.mpf(b)
        if a == b:
            return a
        return (a - b) / (4 * mp.atan(mp.sqrt(a / b)) - mp.pi)


def seiffert2(a, b):
    with _ctx():
        a, b = mp.mpf(a), mp.mpf(b)
        if a == b:
            return a
        return (a - b) / (2 * mp.atan((a - b) / (a + b)))


def neuman(a, b):
    # (a - b) / (2 asinh((a - b)/(a + b))), the difference-quotient form.
    with _ctx():
        a, b = mp.mpf(a), mp.mpf(b)
        if a == b:
            return a
        return (a - b) / (2 * mp.asinh((a - b) / (a + b)))


def glog(p, a, b):
    """Generalized logarithmic mean, literal piecewise definition."""
    with _ctx():
        a, b = mp.mpf(a), mp.mpf(b)
        p = mp.mpf(p)
        if a == b:
            return a
        if p == 0:
            # in logs: b**b/a**a rounds to 1 for tiny pairs
            return mp.exp((b * mp.log(b) - a * mp.log(a)) / (b - a) - 1)
        if p == -1:
            return (b - a) / (mp.log(b) - mp.log(a))
        return mp.power(
            (b ** (p + 1) - a ** (p + 1)) / ((p + 1) * (b - a)), 1 / p
        )


def ch_diff(a, b):
    with _ctx():
        a, b = mp.mpf(a), mp.mpf(b)
        return (a - b) ** 2 / (a + b)


# keyed by the symbols of meanslab.means.MEANS
MEANS = {
    "A": arith,
    "G": geom,
    "H": harm,
    "Cbar": centro,
    "C": contra,
    "P": seiffert1,
    "T": seiffert2,
    "Q": rootsq,
    "M": neuman,
    "I": partial(glog, 0),
    "L": partial(glog, -1),
}


def h1(theta):
    with _ctx():
        th = mp.mpf(theta)
        s = mp.sinh(th)
        return (s - th) / (2 * th * s * s)


def h2(theta):
    with _ctx():
        th = mp.mpf(theta)
        s = mp.sinh(th)
        return (1 - s / th + s * s / 3) / (mp.cosh(th) - s / th)


def h3(theta):
    with _ctx():
        th = mp.mpf(theta)
        s = mp.sinh(th)
        return (mp.cosh(th) - s / th) / (1 + s * s - s / th)


H_FUNCS = {"h1": h1, "h2": h2, "h3": h3}


def theta_star():
    with _ctx():
        return mp.log(1 + mp.sqrt(2))


def p_zero():
    """Root of (p+1)^(1/p) = 2 ln(1+sqrt(2)), found independently."""
    with _ctx():
        target = 2 * mp.log(1 + mp.sqrt(2))
        return mp.findroot(lambda p: mp.power(p + 1, 1 / p) - target, mp.mpf("1.8"))


def constants():
    """The sharp constants, evaluated from their defining expressions."""
    with _ctx():
        L = mp.log(1 + mp.sqrt(2))
        r2 = mp.sqrt(2)
        e = mp.e
        vals = {
            "thm3.1.lower": 1 / (2 * L) - 1,
            "thm3.1.upper": -mp.mpf(5) / 12,
            "cor3.1.lower": mp.mpf(5) / 12,
            "cor3.1.upper": 1 - 1 / (2 * L),
            "cor3.2.lower": mp.mpf(1) / 12,
            "cor3.2.upper": mp.mpf(2) / 3 - 1 / (2 * L),
            "thm3.2.lower": 1 / (2 * L),
            "thm3.3.lower": mp.mpf(1) / 2,
            "thm3.3.upper": (mp.mpf(4) / 3 - 1 / L) / (r2 - 1 / L),
            "thm3.4.lower": (r2 - 1 / L) / (2 - 1 / L),
            "thm3.4.upper": mp.mpf(2) / 5,
            "neuman-QA.lower": (1 - L) / ((r2 - 1) * L),
            "neuman-QA.upper": mp.mpf(1) / 3,
            "neuman-CA.lower": (1 - L) / L,
            "neuman-CA.upper": mp.mpf(1) / 6,
            "zhao-HQ.lower": mp.mpf(2) / 9,
            "zhao-HQ.upper": 1 - 1 / (r2 * L),
            "zhao-GQ.lower": mp.mpf(1) / 3,
            "zhao-GQ.upper": 1 - 1 / (r2 * L),
            "zhao-HC.lower": 1 - 1 / (2 * L),
            "zhao-HC.upper": mp.mpf(5) / 12,
            "identric-IQ.lower": mp.mpf(1) / 2,
            "identric-IQ.upper": e * (r2 * L - 1) / ((r2 * e - 2) * L),
            "lp0-l2.lower": p_zero(),
        }
    return vals
