"""Reference values computed with mpmath, independent of hypercalc.

Every reference is a closed form or a high-precision mpmath quadrature of a
closed-form integrand.  Inputs are identified by their corpus labels; the
formulas below restate what each label means mathematically, they do not
read the expressions the package builds.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath as mp

mp.mp.dps = 30

SQRT_PI = mp.sqrt(mp.pi)

# analytic test functions of corpus.test_suite(), by label
TEST_FUNCTIONS = {
    "gauss": lambda z: mp.exp(-z * z),
    "affine_gauss": lambda z: (1 + z) * mp.exp(-z * z / 2),
    "bump": lambda z: mp.exp(-z * z / 4) * (1 + z * z / 4),
    "sech_gauss": lambda z: mp.sech(z) * mp.exp(-z * z / 8),
}

# real-analytic members of corpus.default_corpus(): f(x) = F+(x) with F- = 0
SMOOTH_1D = {
    "sech": lambda x: mp.sech(x),
    "gaussian": lambda x: mp.exp(-x * x / 2),
    "lorentz": lambda x: 1 / (1 + x * x),
}

# delta family of the corpus: label -> (order, support point)
DELTA_1D = {"delta": (0, 0.0), "delta1": (1, 0.0), "delta2": (2, 0.0),
            "delta3": (3, 0.0), "delta_shift": (0, 0.5)}

ODE_F1_TERMS = 40  # f1 = sum_n delta^(n) / (n! (n+1)!), truncated far past 1e-30


def _c(x) -> complex:
    return complex(x)


def derivative(phi_label, x, n) -> complex:
    """phi^(n)(x)."""
    return _c(mp.diff(TEST_FUNCTIONS[phi_label], mp.mpf(x), n))


def delta_pairing(phi_label, n, at) -> complex:
    """<delta^(n)(. - at), phi> = (-1)^n phi^(n)(at)."""
    return (-1) ** n * derivative(phi_label, at, n)


def pairing(label, phi_label) -> complex:
    """<f, phi> for a member f of the one-dimensional corpus."""
    phi = TEST_FUNCTIONS[phi_label]
    if label in DELTA_1D:
        n, at = DELTA_1D[label]
        return delta_pairing(phi_label, n, at)
    if label in SMOOTH_1D:
        f = SMOOTH_1D[label]
        return _c(mp.quad(lambda x: f(x) * phi(x), [-mp.inf, 0, mp.inf]))
    if label == "ode_f1":
        taylor = mp.taylor(phi, 0, ODE_F1_TERMS)  # phi^(n)(0) / n!
        return _c(mp.fsum((-1) ** n * taylor[n] / mp.factorial(n + 1)
                          for n in range(ODE_F1_TERMS + 1)))
    if label == "ode_f2":
        # fp-type solution of t^2 f' = f: F+ = -e^(-1/z)/2, F- = +e^(-1/z)/2,
        # paired on the lines Im z = +-1/2
        h = mp.mpf(1) / 2

        def bracket(x):
            zp, zm = mp.mpc(x, h), mp.mpc(x, -h)
            return -(mp.exp(-1 / zp) * phi(zp) + mp.exp(-1 / zm) * phi(zm)) / 2

        return _c(mp.quad(bracket, [-mp.inf, 0, mp.inf]))
    raise KeyError(f"no pairing reference for {label!r}")


def fourier_transform(label, xi) -> complex:
    """hat f(xi) = <f, e^(-i x xi)>."""
    xi = mp.mpf(xi)
    if label == "sech":
        return _c(mp.pi * mp.sech(mp.pi * xi / 2))
    if label == "gaussian":
        return _c(mp.sqrt(2 * mp.pi) * mp.exp(-xi * xi / 2))
    if label in DELTA_1D:
        n, at = DELTA_1D[label]
        return _c((1j * xi) ** n * mp.exp(-1j * at * xi))
    if label == "ode_f1":
        return _c(mp.fsum((1j * xi) ** n / (mp.factorial(n) * mp.factorial(n + 1))
                          for n in range(ODE_F1_TERMS + 1)))
    raise KeyError(f"no transform reference for {label!r}")


def moment(label, k) -> complex:
    """mu_k = <f, x^k>."""
    if label == "sech":
        if k % 2:
            return 0j
        j = k // 2
        return _c(2 * (mp.pi / 2) ** (2 * j + 1) * abs(mp.eulernum(2 * j)))
    if label == "gaussian":
        if k % 2:
            return 0j
        double_fact = math.prod(range(k - 1, 0, -2))
        return _c(mp.sqrt(2 * mp.pi) * double_fact)
    raise KeyError(f"no moment reference for {label!r}")


# --------------------------------------------------------------------------
# Radon slices of corpus.multidim_corpus()

# smooth inputs p(x) exp(-|x|^2) in the plane: slice t -> R f(omega, t)
SMOOTH_SLICES = {
    "gauss2": lambda om, t: SQRT_PI * mp.exp(-t * t),
    "skew_gauss2": lambda om, t: SQRT_PI * mp.exp(-t * t) * (1 + om[0] * t),
    "odd_gauss2": lambda om, t: SQRT_PI * om[0] * t * mp.exp(-t * t),
}


def _point_terms(sources, omega):
    """(amplitude, derivative order, support) of each delta^(m)(t - a.omega)
    in the slice of sum_j w_j b_alpha D^alpha delta(x - a_j)."""
    for src in sources:
        adot = sum(float(p) * o for p, o in zip(src.point, omega))
        for alpha, b in src.coefficients.items():
            amp = float(src.weight) * float(b)
            for a, o in zip(alpha, omega):
                amp *= o ** a
            yield amp, sum(alpha), adot


def slice_pairing(label, source_data, omega, phi_label) -> complex:
    """<R f(omega, .), phi>; ``source_data`` is the DeltaCombo's sources."""
    omega = tuple(float(w) for w in omega)
    if label in SMOOTH_SLICES:
        sl = SMOOTH_SLICES[label]
        phi = TEST_FUNCTIONS[phi_label]
        return _c(mp.quad(lambda t: sl(omega, t) * phi(t), [-mp.inf, 0, mp.inf]))
    return sum(amp * delta_pairing(phi_label, m, adot)
               for amp, m, adot in _point_terms(source_data, omega))


def slice_moment(label, source_data, omega, k) -> complex:
    """mu_k of the slice: integral of t^k R f(omega, t) dt."""
    omega = tuple(float(w) for w in omega)
    if label in SMOOTH_SLICES:
        sl = SMOOTH_SLICES[label]
        return _c(mp.quad(lambda t: t ** k * sl(omega, t), [-mp.inf, 0, mp.inf]))
    total = 0j
    for amp, m, adot in _point_terms(source_data, omega):
        if m <= k:
            # <delta^(m)(t - c), t^k> = (-1)^m k!/(k-m)! c^(k-m)
            total += amp * (-1) ** m * math.factorial(k) / math.factorial(k - m) \
                * adot ** (k - m)
    return total


GAUSS_SLICE_PAIRING = float(mp.pi / mp.sqrt(2))  # <R gauss2, gauss>, any omega


# --------------------------------------------------------------------------
# t^2 D - 1: closed-form coefficients of the formal solutions


def ode_coefficients(basis, N):
    """a_0..a_N with a_0 = 1: 1/((n+1)! n!) for delta^(n), (-1)^n/(n+1)! for
    f.p. t^-(n+1)."""
    if basis == "delta":
        return [Fraction(1, math.factorial(n + 1) * math.factorial(n))
                for n in range(N + 1)]
    return [Fraction((-1) ** n, math.factorial(n + 1)) for n in range(N + 1)]
