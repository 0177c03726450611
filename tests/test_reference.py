"""The 2x2 no-jump propagator against an arbitrary-precision reference.

``mpmath.expm(-A t)``, A = Gamma + i diag(omega), is evaluated from the
exact parameters with enough working digits to resolve every entry
above 1e-290, and the closed form must agree with it within a few ulps
per unit of ||A||_F t. The draws are seeded, so every run checks the
same 300.
"""

import math
import random

import mpmath

from vicsim.vsystem import VParams, _no_jump_propagator

EPS = 2.0**-52
BOUND = 8.0  # in units of EPS (1 + ||A||_F t)
SMALLEST = 1e-290  # entries below this are not compared
DRAWS = 300


def _draw(rng):
    """eta at 0, 1, 1/sqrt(3) or log-uniform in [1e-12, 1e3]; p at 0, 1,
    uniform or 1 - 10^-k; 2 draws in 5 with the upper levels detuned by up
    to 10 gamma; gamma*t log-uniform in [1e-6, 1e3]; gamma = 1."""
    eta = rng.choice([0.0, 1.0, 1.0 / math.sqrt(3.0), 10.0 ** rng.uniform(-12.0, 3.0)])
    p = rng.choice([0.0, 1.0, rng.random(), 1.0 - 10.0 ** -rng.randint(1, 15)])
    omega = (rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)) if rng.random() < 0.4 else (0.0, 0.0)
    return VParams(gamma=1.0, eta=eta, p=p, omega1=omega[0], omega2=omega[1]), \
        10.0 ** rng.uniform(-6.0, 3.0)


def _reference(params, t):
    """mpmath.expm(-A t) from the exact float inputs, and ||A||_F.

    Scaling and squaring resolves an entry only down to about 10^-digits
    of the largest, exp(0) at the start of the squaring, so the working
    digits are the largest decay exponent over ln 10, plus 30. That
    exponent is at most tr(Gamma) t, and is capped where exp(-it) falls
    below SMALLEST: no compared entry is smaller.
    """
    gamma, eta, p, w1, w2 = (mpmath.mpf(v) for v in (params.gamma, params.eta, params.p,
                                                     params.omega1, params.omega2))
    exponent = min((params.gamma1 + params.gamma2) * t, -math.log(SMALLEST))
    with mpmath.workdps(int(exponent / math.log(10.0)) + 30):
        g12 = p * eta * gamma
        a = mpmath.matrix([[gamma + 1j * w1, g12], [g12, eta * eta * gamma + 1j * w2]])
        return mpmath.expm(-a * mpmath.mpf(t)), float(mpmath.mnorm(a, "f"))


def test_no_jump_propagator_within_ulps_of_the_reference():
    rng = random.Random(20261019)
    over = []
    for _ in range(DRAWS):
        params, t = _draw(rng)
        u = _no_jump_propagator(params, t)
        reference, norm = _reference(params, t)
        ulps = EPS * (1.0 + norm * t)
        for i in range(2):
            for j in range(2):
                want = complex(reference[i, j])
                if abs(want) > SMALLEST:
                    error = abs(u[i, j] - want) / abs(want) / ulps
                    if error > BOUND:
                        over.append((params, t, (i, j), error))
    assert over == []
