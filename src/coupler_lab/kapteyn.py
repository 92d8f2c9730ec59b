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

Bessel values come from Miller's backward recurrence (Gautschi, SIAM
Rev. 9, 24 (1967)), with no special-function library: J_{k-1}(x) =
(2k/x) J_k(x) - J_{k+1}(x) is run downward from an order far enough
above max(order, x) that its arbitrary start is forgotten, carried on to
order 0, and normalized by J_0 + 2 sum_{k>0} J_2k = 1.  bessel_j runs it
once per distinct argument, all arguments at once.  The zero-point part
of the interaction series needs, for each nu, the sum over |mu| <= M of
mu G_mu J_{nu-mu}(beta*nu): consecutive orders at one argument, so
``_kapteyn_convolution`` runs the same recurrence over each row's band
only, adds each order into the row's sum as it passes, and scales the
row to one bessel_j value; that call also gives J_nu(beta*nu).

G_mu comes from the same method: ``_g_table`` runs the ratio G_mu /
G_{mu-1} of its three-term recurrence downward, fixes G_0 by the sum
rule G_0 + 2 sum_{mu>0} G_mu = sqrt(1 - beta), and keeps one memoized
table per beta, which g_coeff reads.

The Newton solver ``kepler_solve`` is the ground truth all series are
validated against.  The sine-series coefficient table behind sin_beta
and cos_beta depends only on (beta, nu_max); it is memoized in a small
bounded cache (16 entries) and shared read-only, so evaluating the
series point by point builds its Bessel values once.  Every truncated
series here, sin_beta and cos_beta included, is evaluated by
``FourierSeries`` (Clenshaw's recurrence): its work space is a few
arrays of the points' shape, never a (points, nu_max) table of phases.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

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

# kepler_solve's residual target and step limit
_KEPLER_TOL, _KEPLER_MAX_ITER = 1e-14, 100


def bessel_j(order, x):
    """Bessel function of the first kind at integer order.

    Vectorized over both arguments.  Negative orders and arguments follow
    J_{-n}(x) = J_n(-x) = (-1)^n J_n(x); a non-finite argument gives NaN.
    Relative accuracy is better than 1e-12 wherever |J| exceeds 1e-290,
    against AMOS's J (Amos, ACM TOMS 12, 265 (1986)), for |order| and |x|
    up to a few thousand; below
    the turning point (|x| > |order|) J oscillates, and near its zeros
    only the error relative to the neighbouring orders is that small.
    A value below e^-700 by Kapteyn's bound is 0 (see _negligible); each
    other distinct argument costs one recurrence of about
    max(|order|, |x|) steps (see _miller).
    """
    order = np.asarray(order)
    if not np.issubdtype(order.dtype, np.integer):
        rounded = np.rint(order)
        if np.any(rounded != order):
            raise ValueError("bessel_j expects integer orders")
        order = rounded.astype(int)
    order, x = np.broadcast_arrays(order, np.asarray(x, dtype=float))
    n, ax = np.abs(order).ravel().astype(np.int64), np.abs(x).ravel()
    out = np.where(np.isfinite(ax), 0.0, np.nan)
    live = np.flatnonzero(np.isfinite(ax) & ~_negligible(n, ax))
    if len(live):
        out[live] = _miller(n[live], ax[live])
    flip = ((order.ravel() < 0) ^ (x.ravel() < 0)) & (n % 2 == 1)
    out[flip] = -out[flip]
    return out.reshape(order.shape)[()]


def _negligible(n, x):
    """Where J_n(x) < e^-700 (about 1e-304) by Kapteyn's bound.

    For n > x >= 0, J_n(n z) <= (z e^w / (1 + w))^n with w = sqrt(1 - z^2)
    (Kapteyn's inequality; Watson, A Treatise on the Theory of Bessel
    Functions, 1944).
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        z = x / n
        w = np.sqrt(1.0 - z * z)
        return (n > x) & (n * (w - np.log1p(w) + np.log(z)) < -700.0)


def _miller_start(top, x):
    """First order of a downward recurrence that needs orders up to top at x.

    Started at J = 1 with J above it 0, the recurrence's error dies like
    the ratio J/Y of the minimal to the dominant solution, which from
    order n = max(top, x) up falls by at least e^(-2 arccosh(n/x)) per
    order (the Debye exponent's slope), and by more than e^-40 within
    8 x^(1/3) + 20 orders of the turning point, whose region is about
    x^(1/3) wide.  The start takes the fewer of the two counts, plus 4.
    """
    n = np.maximum(top, np.floor(x))
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        orders = np.fmin(20.0 / np.arccosh(np.maximum(n, x) / x), 20.0 + 8.0 * np.cbrt(x))
    return n.astype(np.int64) + 4 + np.ceil(orders).astype(np.int64)


def _miller(n, x):
    """J_n(x) for integer orders n >= 0 at finite x >= 0 (1-D arrays of pairs).

    One recurrence per distinct x, all started at the largest
    _miller_start any of them needs and run down to order 0.  Each row's
    state is the ratio J_{k+1}/J_k, renormalized at every step so the
    newest value is 1: rows deep in the decaying region, where J grows by
    2k/x per order, never overflow, and 2k/x = inf (x below about
    1e-305, or 0) gives the x -> 0 limit, ratio 0.  A row's sum rule J_0 +
    2 sum J_2k and the value of each of its pairs, once passed, are lines
    of one array carried in units of the newest order, so at order 0 a
    pair is its line over the sum's.
    """
    xs, row = np.unique(x, return_inverse=True)
    # line 0 is the sum rule; each pair holds a line of its row from 1 on
    by_row = np.argsort(row, kind="stable")
    counts = np.bincount(row)
    line = np.empty(len(n), dtype=np.int64)
    line[by_row] = np.arange(1, len(n) + 1) - np.repeat(np.cumsum(counts) - counts, counts)
    state = np.zeros((1 + counts.max(), len(xs)))
    flat = state.ravel()
    # the entries of state each order's pairs start
    marks = {}
    for k, i in zip(n.tolist(), (line * len(xs) + row).tolist()):
        marks.setdefault(k, []).append(i)
    ratio, t = np.zeros(len(xs)), np.empty(len(xs))
    with np.errstate(divide="ignore", over="ignore"):
        two_over_x = 2.0 / xs
        for k in range(int(np.max(_miller_start(n, x))) - 1, -1, -1):
            np.multiply(two_over_x, k + 1, out=t)
            t -= ratio
            np.divide(1.0, t, out=ratio)
            state *= ratio
            if k % 2 == 0:
                state[0] += 2.0 if k else 1.0
            for i in marks.get(k, ()):
                flat[i] = 1.0
    return state[line, row] / state[0, row]


def _kapteyn_convolution(beta: float, nu_max: int, c: np.ndarray):
    """Row sums and diagonal of the Kapteyn band at x = beta nu, nu = 1..nu_max.

    Returns (sum_{mu=1..M} c_mu [J_{nu-mu}(x) - J_{nu+mu}(x)], J_nu(x));
    ``c`` holds c_0..c_M (c_0 is unused).  Row nu needs the consecutive
    orders nu-M..nu+M at one argument, so one downward three-term
    recurrence J_{k-1} = (2k/x) J_k - J_{k+1}, run on all rows at once,
    replaces 2M sweeps of Bessel calls.  Step e produces order nu+e on
    every row, so its weight (-c_e above nu, +c_|e| below) is one scalar;
    each order is added into the row sum as it passes, and no (nu_max,
    2M+1) band is ever stored.

    Each row is renormalized at every step so its newest value is 1 (the
    state is the ratio J_{k+1}/J_k), which keeps rows far from the
    turning point, where J falls by 2k/x per order, from overflowing.
    Every row starts from J = 1 with 0 above it, at the largest offset
    from nu that _miller_start gives any row for order nu+M (Miller's
    algorithm: a row forgets its start within those orders).  The row is
    then scaled to one bessel_j value at k* = max(floor(x), nu-M), where
    J_k*(x) > 0: as (row / row_k*) J_k*, since row (J_k*/row_k*)
    underflows.  floor(x) rather than ceil(x) keeps k* = 0 for x < 1,
    where J_1/J_0 ~ x/2 would underflow to 0 for x below 4e-308.  The same
    bessel_j call gives J_nu(x).

    The recurrence stops at order 0: rows nu < M collect the negative
    orders by reflection, J_{-m} = (-1)^m J_m, as order m passes.  Rows
    past the last one whose J_{nu-M}(x) is not _negligible are 0 and are
    not run; row min(M, nu_max) has order nu - M <= 0, never negligible,
    so at least one row runs.

    Against the per-mu ``jv`` sum, every row agrees to 2e-12 of
    sum_mu |c_mu| (|J_{nu-mu}| + |J_{nu+mu}|) wherever that sum exceeds
    1e-250 (measured worst 4.8e-13 over beta 1e-300..0.98, nu_max up to
    2048, M up to 120); rows at any beta >= 0 are finite.
    """
    m = len(c) - 1
    nu = np.arange(1.0, nu_max + 1)
    x = beta * nu
    kstar = np.maximum(np.floor(x), nu - m)
    j_star, diagonal = bessel_j(np.stack((kstar, nu)), x)
    live = np.flatnonzero(~_negligible(nu - m, x))
    n = int(live[-1]) + 1
    out = np.zeros(nu_max)
    nu, x, kstar = nu[:n], x[:n], kstar[:n]
    e0 = int(np.max(_miller_start(nu + m, x) - nu))
    orders = np.arange(1.0 - n, n + e0 + 1)  # index i holds order i + 1 - n
    ratio = np.zeros(n)
    # row 0: the sum, row 1: the value at k* once passed, both in units of
    # each row's newest order
    sums = np.zeros((2, n))
    # k* - nu does not increase with nu, so the rows with k* = nu + e are
    # one block, and the blocks follow each other as e falls; below e = -n
    # every row's order is negative
    offsets = range(e0 - 1, -min(m, n) - 1, -1)
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
            t = orders[a + e + n + 1:e + 2 * n + 1] * two_over_x[a:]  # 2 (nu + e + 1) / x
            r = ratio[a:]
            t -= r
            np.divide(1.0, t, out=r)
            sums[:, a:] *= r
            if 0 < abs(e) <= m:
                sums[0, a:] += c[-e] if e < 0 else -c[e]
            if end > start:
                sums[1, start:end] = 1.0
                start = end
            lo, hi = max(0, -e), min((m - e) // 2, n)  # nu + e >= 1, 2 nu + e <= m
            if hi > lo:
                term = reflected[2 * lo + 2 + e:2 * hi + 2 + e:2]
                if -e // 2 % 2 == 0:
                    sums[0, lo:hi] += term
                else:
                    sums[0, lo:hi] -= term
    out[:n] = sums[0] / sums[1] * j_star[:n]
    return out, diagonal


def kepler_solve(beta: float, phi_x):
    """Solve chi - phi_x - beta*sin(chi) = 0 for chi by damped Newton.

    For 0 <= beta < 1 the left side is strictly increasing in chi
    (derivative 1 - beta*cos >= 1 - beta > 0), so the root is unique.
    Steps are clipped to pi to avoid overshoot where the curvature
    changes sign.  Residual at return is <= _KEPLER_TOL (absolute).
    """
    if not 0.0 <= beta < 1.0:
        raise ValueError(f"kepler_solve requires 0 <= beta < 1, got {beta}")
    phi_in = np.asarray(phi_x, dtype=float)
    phi = np.atleast_1d(phi_in)
    chi = phi.copy()
    for _ in range(_KEPLER_MAX_ITER):
        f = chi - phi - beta * np.sin(chi)
        active = np.abs(f) > _KEPLER_TOL
        if not np.any(active):
            break
        step = np.clip(f / (1.0 - beta * np.cos(chi)), -np.pi, np.pi)
        chi = chi - np.where(active, step, 0.0)
    else:
        resid = np.max(np.abs(chi - phi - beta * np.sin(chi)))
        raise NumericError(f"kepler_solve did not converge: residual {resid:.3e}",
                           {"residual": float(resid), "iterations": _KEPLER_MAX_ITER})
    return chi if phi_in.ndim else float(chi[0])


@lru_cache(maxsize=16)
def _sin_coeffs(beta: float, nu_max: int) -> np.ndarray:
    """Sine-series coefficients of sin_beta for nu = 1..nu_max.

    coeff_nu = 2 J_nu(beta*nu)/(beta*nu), taken as (J_{nu-1} + J_{nu+1})/nu
    at beta*nu (the three-term recurrence), which needs no division by
    beta*nu: at beta = 0 it is the Kronecker delta at nu = 1, and it stays
    finite as beta*nu underflows.  Memoized; the returned array is shared
    and read-only.
    """
    nu = np.arange(1, nu_max + 1)
    c = np.sum(bessel_j(np.stack((nu - 1, nu + 1)), beta * nu), axis=0) / nu
    c.flags.writeable = False
    return c


def sin_beta(beta: float, phi, nu_max: int = 100):
    """Junction-current function sin(chi(phi)) as a truncated sine series.

    Odd and 2*pi-periodic in phi.  Satisfies the self-consistency
    relation sin_beta(phi) = sin(phi + beta*sin_beta(phi)) up to
    truncation error.
    """
    _check_series_args(beta, nu_max)
    half = np.concatenate(([0.0], _sin_coeffs(float(beta), int(nu_max)) / 2.0))
    out = FourierSeries(nu_max, half, parity="odd")(phi)
    return out if np.ndim(out) else float(out)


def cos_beta(beta: float, phi, nu_max: int = 100):
    """Antiderivative form 1 - integral_0^phi sin_beta, truncated.

    Even and 2*pi-periodic; the full-series mean over a period is
    -beta/4.  Returned as 1 + (S(phi) - S(0)), S the even series of
    coefficients coeff_nu / nu, both values from the same FourierSeries,
    so cos_beta(0) = 1 exactly at any truncation.
    """
    _check_series_args(beta, nu_max)
    nu = np.arange(1, nu_max + 1)
    half = np.concatenate(([0.0], _sin_coeffs(float(beta), int(nu_max)) / (2.0 * nu)))
    series = FourierSeries(nu_max, half, parity="even")
    out = 1.0 + (series(phi) - series(0.0))
    return out if np.ndim(out) else float(out)


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


def g_coeff(mu: int, beta: float) -> float:
    """Fourier coefficient G_mu of sqrt(1 - beta*cos(theta)).

    Even in mu.  Read from beta's _g_table whose size is the least power
    of two above |mu|, at least 512: one table serves every |mu| < 512.
    """
    if not 0.0 <= beta < 1.0:
        raise ValueError(f"g_coeff requires 0 <= beta < 1, got {beta}")
    mu = abs(int(mu))
    return float(_g_table(float(beta), max(512, 1 << mu.bit_length()))[mu])


@lru_cache(maxsize=32)
def _g_table(beta: float, size: int) -> np.ndarray:
    """G_0..G_{size-1} of sqrt(1 - beta*cos(theta)) by Miller's algorithm.

    G is the minimal solution of beta (mu + 3/2) G_{mu+1} = 2 mu G_mu -
    beta (mu - 3/2) G_{mu-1} (mu >= 1), falling like rho^mu, rho = beta /
    (1 + sqrt(1 - beta^2)); its ratio r_mu = G_mu / G_{mu-1} is run down
    from 0 at ceil(20 / -ln rho) orders above size, so by order size the
    start's error has fallen by e^-40.  The sum rule G_0 + 2 sum_{mu>0}
    G_mu = sqrt(1 - beta), carried in units of the newest order, fixes
    G_0; a cumulative product gives the rest, within 1.4e-14 relative of
    60-digit values for beta <= 0.995 (4.5e-14 at 0.999, as the sum rule
    cancels).  Memoized; the returned array is shared and read-only.
    """
    rho = beta / (1.0 + math.sqrt(1.0 - beta * beta))
    top = size + (math.ceil(20.0 / -math.log(rho)) if rho > 0.0 else 0)
    ratios = np.empty(top + 1)
    # after step mu, total is 2 sum_{k >= mu} G_k in units of G_{mu-1}
    r, total = 0.0, 0.0
    for mu in range(top, 0, -1):
        r = beta * (mu - 1.5) / (2.0 * mu - beta * (mu + 1.5) * r)
        total = (total + 2.0) * r
        ratios[mu] = r
    ratios[0] = math.sqrt(1.0 - beta) / (total + 1.0)
    g = np.cumprod(ratios[:size])
    g.flags.writeable = False
    return g


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
        """The series at phi, by Clenshaw's recurrence for both parities.

        b_nu = c_nu + 2 cos(phi) b_{nu+1} - b_{nu+2} from nu_max down to 1
        gives sum_{nu>0} c_nu cos(nu phi) = cos(phi) b_1 - b_2 and
        sum_{nu>0} c_nu sin(nu phi) = sin(phi) b_1, so the work is a few
        operations per order on arrays of phi's shape, and no
        (..., nu_max) table of phases is built.
        """
        phi = np.asarray(phi, dtype=float)
        cos = np.cos(phi)
        two_cos = 2.0 * cos
        b1, b2 = np.zeros(phi.shape), np.zeros(phi.shape)
        for c in self.coeffs[:0:-1]:
            b1, b2 = two_cos * b1 - b2 + c, b1
        if self.parity == "even":
            out = self.coeffs[0] + 2.0 * (cos * b1 - b2)
        else:
            out = 2.0 * np.sin(phi) * b1
        return out[()]
