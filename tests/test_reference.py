"""The 2x2 no-jump propagator against an arbitrary-precision reference.

``mpmath.expm(-A t)``, A = Gamma + i diag(omega), is evaluated from the
exact parameters with enough working digits to resolve every entry
above 1e-290, and the closed form must agree with it within a few ulps
per unit of ||A||_F t. The draws are seeded, so every run checks the
same 300. Its long-time limit U(infinity) is checked against the exact
rational projector instead.
"""

import math
import random
import sys
from fractions import Fraction

import mpmath

from vicsim.vsystem import VParams, _no_jump_propagator, no_jump_propagators, steady_no_jump

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


def test_no_jump_grid_within_ulps_of_the_reference():
    # the same draws and bound, each read as the last time of a grid
    rng = random.Random(20261019)
    over = []
    for _ in range(DRAWS):
        params, t = _draw(rng)
        u = no_jump_propagators(params, [0.0, t / 2.0, t])[2]
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


# U(infinity) at p = 1 is the projector [[eta^2, -eta], [-eta, 1]] / (1 + eta^2)
# onto the dark direction; each entry is checked against its exact value at the
# float eta: within 2 ulps (relative error in units of EPS, as above) where that
# value is a normal float, within the smallest subnormal where it is not.
STEADY_ULPS = 2.0
STEADY_ETAS = (0.0, 1e-300, 1e-8, 1.0 / math.sqrt(3.0), 1.0, math.sqrt(2.0), 3.0, 1e3, 1e154)
STEADY_DRAWS = 3000


def _exact_steady_no_jump(eta):
    """The entries of U(infinity) at p = 1, exact at the float eta, by position."""
    eta = Fraction(eta)
    norm = 1 + eta * eta
    return {(0, 0): eta * eta / norm, (0, 1): -eta / norm, (1, 0): -eta / norm, (1, 1): 1 / norm}


def test_steady_no_jump_within_ulps_of_the_exact_projector():
    rng = random.Random(20261020)
    etas = STEADY_ETAS + tuple(10.0 ** rng.uniform(-150.0, 150.0) for _ in range(STEADY_DRAWS))
    over = []
    for eta in etas:
        u = steady_no_jump(VParams(eta=eta, p=1.0))
        for (i, j), want in _exact_steady_no_jump(eta).items():
            bound = STEADY_ULPS * EPS * abs(want) if abs(want) >= sys.float_info.min else 5e-324
            if u[i, j].imag != 0.0 or abs(Fraction(u[i, j].real) - want) > bound:
                over.append((eta, (i, j), u[i, j]))
    assert over == []


def test_steady_no_jump_exact_cases():
    # just below full interference nothing survives; without the umbrella
    # transition (eta = 0) the umbrella level itself never decays
    for eta in STEADY_ETAS[1:]:
        assert steady_no_jump(VParams(eta=eta, p=1.0 - 2.0**-53)).tolist() == [[0, 0], [0, 0]]
    for p in (0.0, 0.5, 1.0):
        assert steady_no_jump(VParams(eta=0.0, p=p)).tolist() == [[0, 0], [0, 1]]
