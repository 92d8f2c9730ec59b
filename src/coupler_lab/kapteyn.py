"""Kapteyn-series inversion of the junction phase relation.

The classical minimum of the coupler potential u(chi) = (chi - phi)^2/2
+ beta*cos(chi) satisfies a Kepler-type equation in the minimizing
phase chi:

    chi - phi - beta*sin(chi) = 0,      0 <= beta < 1.

Every 2*pi-periodic function of chi is then a Fourier series in phi
whose coefficients are Bessel functions evaluated at integer multiples
of their order (a Kapteyn series).  The building blocks:

    e^{i mu chi} = sum_nu A_nu^(mu) e^{i nu phi}

    A_nu^(mu) = delta_{mu,0} - (beta/2)(delta_{mu,1} + delta_{mu,-1})   nu = 0
              = mu * J_{nu-mu}(beta*nu) / nu                            nu != 0

    sin_beta(phi) = sin(chi(phi))
                  = sum_{nu>0} (2 J_nu(beta*nu) / (beta*nu)) sin(nu*phi)

    cos_beta(phi) = 1 - integral_0^phi sin_beta
                  = 1 + sum_{nu>0} (2 J_nu(beta*nu) / (beta*nu^2)) (cos(nu*phi) - 1)

and the Fourier coefficients of the square-root kernel

    sqrt(1 - beta*cos(theta)) = sum_mu G_mu(beta) e^{i mu theta},
    G_mu = sum_{l>=0} C(1/2, mu+2l) C(mu+2l, l) (-beta/2)^{mu+2l},

with C(1/2, k) the generalized binomial coefficient.  Useful closed
forms, both consequences of the defining equation:

    d sin_beta / d phi = cos(chi) / (1 - beta*cos(chi))
    cos_beta(phi)      = (beta/2) sin_beta(phi)^2 + cos(chi)

The zero-point part of the interaction series needs, for each nu, the
sum over |mu| <= M of mu G_mu J_{nu-mu}(beta*nu): consecutive orders at
one argument.  ``_kapteyn_convolution`` takes all of them from one
downward three-term recurrence per row, anchored on two ``jv`` values
(or Miller-started where those underflow), renormalized at every step,
reflected through J_{-m} = (-1)^m J_m below order 0 and scaled to one
``jv`` value near the turning point.  It agrees with the per-mu ``jv``
sum to 2e-12 of each row's sum of |terms|.

The Newton solver ``kepler_solve`` is the ground truth all series are
validated against.  The sine-series coefficient table behind sin_beta
and cos_beta depends only on (beta, nu_max); it is memoized in a small
bounded cache (16 entries) and shared read-only, so evaluating the
series point by point builds its Bessel values once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import jv

from .errors import NumericError

__all__ = [
    "FourierSeries",
    "bessel_j",
    "kepler_solve",
    "sin_beta",
    "cos_beta",
    "exp_mu_coeff",
    "g_coeff",
]


def bessel_j(order, x):
    """Bessel function of the first kind at integer order.

    Vectorized over both arguments.  Relative accuracy is better than
    1e-12 on the regime this module exercises (|order| <= 500 with
    |x| <= |order|, i.e. below the turning point where J_nu(beta*nu)
    decays exponentially in nu).
    """
    order = np.asarray(order)
    if not np.issubdtype(order.dtype, np.integer):
        rounded = np.rint(order)
        if np.any(rounded != order):
            raise ValueError("bessel_j expects integer orders")
        order = rounded.astype(int)
    return jv(order, x)


def _kapteyn_convolution(beta: float, nu_max: int, c: np.ndarray) -> np.ndarray:
    """sum_{mu=1..M} c_mu [J_{nu-mu}(beta nu) - J_{nu+mu}(beta nu)], nu = 1..nu_max.

    ``c`` holds c_0..c_M (c_0 is unused).  Row nu needs the consecutive
    orders nu-M..nu+M at one argument x = beta nu, so one downward
    three-term recurrence J_{k-1} = (2k/x) J_k - J_{k+1}, run on all
    rows at once, replaces 2M sweeps of Bessel calls.  Step e produces
    order nu+e on every row, so its weight (-c_e above nu, +c_|e| below)
    is one scalar; each order is added into the row sum as it passes,
    and no (nu_max, 2M+1) band is ever stored.

    Each row is renormalized at every step so its newest value is 1
    (the state is the ratio J_{k+1}/J_k), which keeps rows far from the
    turning point, where J falls by 2k/x per order, from overflowing.
    The start is the ratio of ``jv`` anchors at orders nu+M and nu+M-1,
    or 0 where the lower anchor underflows (Miller's algorithm: a row
    that deep in the decaying region forgets its start within a few
    orders; Gautschi, SIAM Rev. 9, 24 (1967)).  The row is then scaled to
    ``jv`` at k* = max(floor(x), nu-M), where J_k*(x) > 0: as
    (row / row_k*) J_k*, since row (J_k*/row_k*) underflows.  floor(x)
    rather than ceil(x) keeps k* = 0 for x < 1, where J_1/J_0 ~ x/2
    would underflow to 0 for x below 4e-308.

    The recurrence stops at order 0: rows nu < M collect the negative
    orders by reflection, J_{-m} = (-1)^m J_m, as order m passes.

    Against the per-mu ``jv`` sum, every row agrees to 2e-12 of
    sum_mu |c_mu| (|J_{nu-mu}| + |J_{nu+mu}|) wherever that sum exceeds
    1e-250 (measured worst 6e-13 over beta 1e-300..0.98, nu_max up to
    2048, M up to 120); rows at any beta >= 0 are finite.
    """
    m = len(c) - 1
    orders = np.arange(1.0 - m, nu_max + m + 1)  # every order any row reaches
    nu = orders[m:nu_max + m]
    x = beta * nu
    kstar = np.maximum(np.floor(x), nu - m)
    top, below, j_star = jv(np.stack((orders[2 * m:], orders[2 * m - 1:-1], kstar)), x)
    ratio = np.zeros(nu_max)
    np.divide(top, below, out=ratio, where=below >= np.finfo(float).tiny)
    # row 0: the sum, row 1: the value at k* once passed, both in units
    # of each row's newest order
    sums = np.zeros((2, nu_max))
    sums[0] = -c[m] * ratio - (c[m - 1] if m > 1 else 0.0)
    # k* - nu does not increase with nu, so the rows with k* = nu + e are
    # one block, and the blocks follow each other as e falls; k* <= nu + m - 2
    offsets = range(m - 2, -m - 1, -1)
    ends = np.searchsorted(nu - kstar, [-e for e in offsets], side="right").tolist()
    # reflected order -m' of row nu (e = -m' - nu) carries c_{2nu+e} (-1)^{m'};
    # with j = 2nu + e that sign is (-1)^{floor(j/2)} (-1)^{ceil(e/2)}
    reflected = c.copy()
    reflected[2::4] *= -1.0
    reflected[3::4] *= -1.0
    start = 0
    # 2k/x is inf for x below ~1e-305; the ratio it gives is then 0, the x -> 0 limit
    with np.errstate(divide="ignore", over="ignore"):
        two_over_x = 2.0 / x
        for e, end in zip(offsets, ends):
            a = max(0, -e - 1)  # rows whose order nu + e is >= 0
            t = orders[a + e + m + 1:nu_max + e + m + 1] * two_over_x[a:]  # 2 (nu + e + 1) / x
            r = ratio[a:]
            t -= r
            np.divide(1.0, t, out=r)
            sums[:, a:] *= r
            if e:
                sums[0, a:] += c[-e] if e < 0 else -c[e]
            if end > start:
                sums[1, start:end] = 1.0
                start = end
            lo, hi = max(0, -e), min((m - e) // 2, nu_max)  # nu + e >= 1, 2 nu + e <= m
            if hi > lo:
                term = reflected[2 * lo + 2 + e:2 * hi + 2 + e:2]
                if -e // 2 % 2 == 0:
                    sums[0, lo:hi] += term
                else:
                    sums[0, lo:hi] -= term
    return sums[0] / sums[1] * j_star


def kepler_solve(beta: float, phi_x, tol: float = 1e-14, max_iter: int = 100):
    """Solve chi - phi_x - beta*sin(chi) = 0 for chi by damped Newton.

    For 0 <= beta < 1 the left side is strictly increasing in chi
    (derivative 1 - beta*cos >= 1 - beta > 0), so the root is unique.
    Steps are clipped to pi to avoid overshoot where the curvature
    changes sign.  Residual at return is <= tol (absolute).
    """
    if not 0.0 <= beta < 1.0:
        raise ValueError(f"kepler_solve requires 0 <= beta < 1, got {beta}")
    phi_in = np.asarray(phi_x, dtype=float)
    phi = np.atleast_1d(phi_in)
    chi = phi.copy()
    for _ in range(max_iter):
        f = chi - phi - beta * np.sin(chi)
        active = np.abs(f) > tol
        if not np.any(active):
            break
        step = np.clip(f / (1.0 - beta * np.cos(chi)), -np.pi, np.pi)
        chi = chi - np.where(active, step, 0.0)
    else:
        resid = np.max(np.abs(chi - phi - beta * np.sin(chi)))
        raise NumericError(f"kepler_solve did not converge: residual {resid:.3e}",
                           {"residual": float(resid), "iterations": max_iter})
    return chi if phi_in.ndim else float(chi[0])


@lru_cache(maxsize=16)
def _sin_coeffs(beta: float, nu_max: int) -> np.ndarray:
    """Sine-series coefficients of sin_beta for nu = 1..nu_max.

    coeff_nu = 2 J_nu(beta*nu)/(beta*nu); the beta -> 0 limit is the
    Kronecker delta at nu = 1 (J_1(x) ~ x/2).  Memoized; the returned
    array is shared and read-only.
    """
    nu = np.arange(1, nu_max + 1)
    if beta == 0.0:
        c = np.zeros(nu_max)
        c[0] = 1.0
    else:
        c = 2.0 * bessel_j(nu, beta * nu) / (beta * nu)
    c.flags.writeable = False
    return c


def sin_beta(beta: float, phi, nu_max: int = 100):
    """Junction-current function sin(chi(phi)) as a truncated sine series.

    Odd and 2*pi-periodic in phi.  Satisfies the self-consistency
    relation sin_beta(phi) = sin(phi + beta*sin_beta(phi)) up to
    truncation error.
    """
    _check_series_args(beta, nu_max)
    phase = np.asarray(phi, dtype=float)[..., None] * np.arange(1, nu_max + 1)
    out = np.sin(phase, out=phase) @ _sin_coeffs(float(beta), int(nu_max))
    return out if out.ndim else float(out)


def cos_beta(beta: float, phi, nu_max: int = 100):
    """Antiderivative form 1 - integral_0^phi sin_beta, truncated.

    Even and 2*pi-periodic, with cos_beta(0) = 1 exactly at any
    truncation; the full-series mean over a period is -beta/4.
    """
    _check_series_args(beta, nu_max)
    nu = np.arange(1, nu_max + 1)
    phase = np.asarray(phi, dtype=float)[..., None] * nu
    np.cos(phase, out=phase)
    phase -= 1.0
    out = 1.0 + phase @ (_sin_coeffs(float(beta), int(nu_max)) / nu)
    return out if out.ndim else float(out)


def exp_mu_coeff(mu: int, nu: int, beta: float) -> float:
    """Fourier coefficient A_nu^(mu) of e^{i mu chi(phi)}.

    Real for all integer mu, nu.  The nu = 0 row is the degenerate
    case fixed by direct integration.
    """
    if nu == 0:
        if mu == 0:
            return 1.0
        if abs(mu) == 1:
            return -beta / 2.0
        return 0.0
    return mu * float(bessel_j(nu - mu, beta * nu)) / nu


def g_coeff(mu: int, beta: float, tiny: float = 1e-16, max_terms: int = 100000) -> float:
    """Fourier coefficient G_mu of sqrt(1 - beta*cos(theta)).

    Even in mu.  The defining hypergeometric-type sum is accumulated
    through the term ratio

        t_{l+1}/t_l = (beta/2)^2 (mu+2l-1/2)(mu+2l+1/2) / ((l+1)(mu+l+1)),

    which tends to beta^2 < 1, so terms are eventually geometric.  For
    large mu the terms first grow (the ratio starts near (beta/2)^2 mu)
    before decaying, so the sum stops on |t_l| < tiny only once the
    terms are shrinking; the ratio crosses 1 exactly once, which makes
    that stopping rule safe.
    """
    if not 0.0 <= beta < 1.0:
        raise ValueError(f"g_coeff requires 0 <= beta < 1, got {beta}")
    mu = abs(int(mu))
    # t_0 = C(1/2, mu) * (-beta/2)^mu
    t = (-beta / 2.0) ** mu
    for k in range(mu):
        t *= (0.5 - k) / (k + 1.0)
    total = t
    prev = abs(t)
    for l in range(max_terms):
        t *= (beta / 2.0) ** 2 * (mu + 2 * l - 0.5) * (mu + 2 * l + 0.5) / ((l + 1.0) * (mu + l + 1.0))
        total += t
        if abs(t) < tiny and abs(t) <= prev:
            return total
        prev = abs(t)
    raise NumericError(f"g_coeff sum did not terminate for mu={mu}, beta={beta}",
                       {"mu": mu, "beta": beta, "terms": max_terms})


def _check_series_args(beta: float, nu_max: int) -> None:
    if not 0.0 <= beta < 1.0:
        raise ValueError(f"series require 0 <= beta < 1, got beta={beta}")
    if nu_max < 1:
        raise ValueError(f"nu_max must be >= 1, got {nu_max}")


@dataclass
class FourierSeries:
    """Real-coefficient truncated Fourier series on [-pi, pi).

    ``coeffs`` stores the half-spectrum c_nu for nu = 0..nu_max; the
    declared parity ("even" or "odd") fixes the other half:

        even: f(phi) = c_0 + sum_{nu>0} 2 c_nu cos(nu*phi)
        odd:  f(phi) =       sum_{nu>0} 2 c_nu sin(nu*phi)   (c_0 = 0)

    so the series evaluates to real numbers with the mirror coefficient
    at -nu equal to +c_nu (even) or -c_nu (odd).
    """

    nu_max: int
    coeffs: np.ndarray
    parity: str = "even"

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.parity not in ("even", "odd"):
            raise ValueError(f"unknown parity {self.parity!r}")
        if self.coeffs.shape != (self.nu_max + 1,):
            raise ValueError(
                f"coeffs must have shape ({self.nu_max + 1},), got {self.coeffs.shape}"
            )
        if self.parity == "odd" and self.coeffs[0] != 0.0:
            raise ValueError("odd series must have zero mean coefficient")
        if not np.all(np.isfinite(self.coeffs)):
            raise ValueError("non-finite Fourier coefficient")

    def coeff(self, nu: int) -> float:
        """Coefficient at signed index nu in [-nu_max, nu_max]."""
        if abs(nu) > self.nu_max:
            raise IndexError(f"|nu| = {abs(nu)} exceeds nu_max = {self.nu_max}")
        c = self.coeffs[abs(nu)]
        if nu < 0 and self.parity == "odd":
            return -c
        return float(c)

    def __call__(self, phi):
        # trig in place: one (..., nu_max) table at a time, not two
        phase = np.asarray(phi, dtype=float)[..., None] * np.arange(1, self.nu_max + 1)
        if self.parity == "even":
            out = self.coeffs[0] + 2.0 * (np.cos(phase, out=phase) @ self.coeffs[1:])
        else:
            out = 2.0 * (np.sin(phase, out=phase) @ self.coeffs[1:])
        return out if out.ndim else out[()]
