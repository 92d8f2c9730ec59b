"""Coupler ground-state-energy engine.

The coupler is a biased oscillator with a junction,

    H_c / E_Ltc = (phi_c - phi_x)^2 / 2 + 4 zeta^2 n^2 + beta cos(phi_c),

whose ground energy as a function of the bias phi_x mediates every
qubit-qubit interaction.  Three descriptions of E_g(phi_x) live here:

  * exact: dense diagonalization on the Gauss-Hermite grid of the
    beta = 0 oscillator, where the junction cosine is diagonal (the
    oracle),
  * series: E_g/E_Ltc = B_0 + 2 sum_{nu>0} B_nu cos(nu phi_x), with a
    classical part B_nu^(0) from the potential minimum and a quantum
    part B_nu^(1) from the harmonic zero-point energy,

        B_0     = -beta^2/4            + zeta (G_0 - beta G_1)
        B_nu    = J_nu(beta nu)/nu^2   + (zeta/nu) sum_mu mu G_mu J_{nu-mu}(beta nu)

  * derivatives: E_g' and E_g'' at a bias point, in closed form from
    the Kepler-equation minimum (analytic) or from perturbation theory
    on the exact ground state (numeric).

Truncating the series at nu_max incurs an error bounded through the
closed-form tail sums

    2 sum_{nu>0} B_nu^(0) = beta + beta^2/4
    2 sum_{nu>0} B_nu^(1) = sqrt(1-beta) - G_0 + beta G_1,

combined with the same relative signs they carry in E_g.  All outputs
are in units of E_Ltc.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConfigurationError, NumericError
from .kapteyn import FourierSeries, _g_table, _kapteyn_convolution, cos_beta, g_coeff, kepler_solve
from .oscillator import TensorOperator, _junction_matrix, _junction_mode, _residual_bound, lowest_eigs

__all__ = [
    "BodcMetrics",
    "CouplerParams",
    "EgSeries",
    "b_coeffs",
    "bodc_metrics",
    "eg_derivs_analytic",
    "eg_derivs_numeric",
    "eg_eval",
    "eg_exact",
    "min_nu_for_error",
    "truncation_bound",
    "u_min",
    "u_zpe_harmonic",
]

MIN_NU_CAP = 100_000
# A ground level closer than this to the next is ill-conditioned for the
# perturbative quantities; the continuation certifies a gap above it.
_GAP_TOL = 1e-10
# Rayleigh-quotient steps before a continued point starts from scratch.
_RQI_STEPS = 6
# A continued point's residual floor, in eps ||H||_F (see _continued_ground).
_RQI_FLOOR = 0.25


@dataclass(frozen=True)
class CouplerParams:
    """Dimensionless coupler parameters; energies in the global unit."""

    beta_c: float
    zeta_c: float
    e_ltc: float = 1.0

    def __post_init__(self):
        if not 0.0 <= self.beta_c < 1.0:
            raise ConfigurationError(
                f"beta_c must be in [0, 1) for a monostable coupler, got {self.beta_c}"
            )
        for name in ("zeta_c", "e_ltc"):
            value = getattr(self, name)
            if not 0.0 < value < math.inf:
                raise ConfigurationError(f"{name} must be positive and finite, got {value}")


@dataclass(frozen=True)
class EgSeries:
    """Fourier representation of E_g(phi_x)/E_Ltc.

    b_classical holds B_nu^(0), b_quantum holds B_nu^(1); the total
    coefficient is B_nu = B_nu^(0) + zeta_c B_nu^(1).  Both components
    are even series (B_nu = B_{-nu}).  beta_c and zeta_c record the
    coupler the series was built for.
    """

    b_classical: FourierSeries
    b_quantum: FourierSeries
    beta_c: float
    zeta_c: float
    nu_max: int
    mu_max: int

    def __post_init__(self):
        if self.b_classical.parity != "even" or self.b_quantum.parity != "even":
            raise ConfigurationError("EgSeries components must be even series")
        if self.b_classical.nu_max != self.nu_max or self.b_quantum.nu_max != self.nu_max:
            raise ConfigurationError("component series length disagrees with nu_max")

    @property
    def coeffs(self) -> np.ndarray:
        """Total coefficients B_nu for nu = 0..nu_max."""
        return self.b_classical.coeffs + self.zeta_c * self.b_quantum.coeffs

    def coeff(self, nu: int) -> float:
        return self.b_classical.coeff(nu) + self.zeta_c * self.b_quantum.coeff(nu)


def u_min(beta_c: float, phi_x, nu_max: int = 100):
    """Classical minimum energy beta_c * cos_beta(phi_x) of the coupler.

    Equals min over phi_c of (phi_c - phi_x)^2/2 + beta_c cos(phi_c).
    """
    if not 0.0 <= beta_c < 1.0:
        raise ValueError(f"u_min requires 0 <= beta_c < 1, got {beta_c}")
    return beta_c * cos_beta(beta_c, phi_x, nu_max=nu_max)


def u_zpe_harmonic(beta_c: float, zeta_c: float, phi_x):
    """Zero-point energy zeta_c sqrt(1 - beta_c cos(phi_c*)).

    The curvature at the classical minimum phi_c* gives an effective
    oscillator of frequency 2 zeta sqrt(1 - beta cos phi_c*).
    """
    chi = kepler_solve(beta_c, phi_x)
    return zeta_c * np.sqrt(1.0 - beta_c * np.cos(chi))


def _mu_cutoff(beta_c: float) -> int:
    """Smallest M with |mu G_mu| < 1e-16 for every mu in [M, 399].

    One scan of the G table g_coeff reads (315 at beta_c = 0.995).  From
    beta_c ~ 0.9969 up |399 G_399| is not below 1e-16, so a truncation
    bound built on the cut would not hold, and NumericError is raised.
    """
    mu_g = np.abs(np.arange(400) * _g_table(float(beta_c), 512)[:400])
    if not mu_g[399] < 1e-16:
        raise NumericError(f"|mu G_mu| stays above 1e-16 up to mu = 399 at beta_c = {beta_c}",
                           {"beta_c": beta_c, "smallest_mu_g": float(mu_g[399])})
    return int(np.flatnonzero(mu_g >= 1e-16).max(initial=0)) + 1


def b_coeffs(beta_c: float, zeta_c: float, nu_max: int = 100,
             mu_max: int | None = None) -> EgSeries:
    """Interaction series coefficients B_nu^(0), B_nu^(1) for nu <= nu_max.

    The quantum convolution runs over |mu| <= mu_max, by default the
    least M with |mu G_mu| < 1e-16 for every mu in [M, 399]
    (``_mu_cutoff``: 19 at beta_c = 0.3, 26 at 0.5, 43 at 0.75, 71 at
    0.9, 102 at 0.95), so every dropped term lies below rounding.  Where
    |399 G_399| is not below it (beta_c from about 0.9969 up) the default
    raises NumericError; an explicit mu_max cuts the sum there as given.
    Neither component depends on zeta_c, so both are memoized per
    (beta_c, nu_max, mu_max) and shared, read-only, by every zeta_c.
    """
    if not 0.0 <= beta_c < 1.0:
        raise ValueError(f"b_coeffs requires 0 <= beta_c < 1, got {beta_c}")
    if mu_max is None:
        mu_max = _mu_cutoff(beta_c)
    if nu_max < 1 or mu_max < 1:
        raise ValueError("nu_max and mu_max must be positive")
    classical, quantum = _series_parts(float(beta_c), int(nu_max), int(mu_max))
    return EgSeries(
        b_classical=FourierSeries(nu_max, classical, parity="even"),
        b_quantum=FourierSeries(nu_max, quantum, parity="even"),
        beta_c=beta_c,
        zeta_c=zeta_c,
        nu_max=nu_max,
        mu_max=mu_max,
    )


@lru_cache(maxsize=32)
def _series_parts(beta_c: float, nu_max: int, mu_max: int) -> tuple:
    """B_nu^(0) and B_nu^(1) for nu = 0..nu_max: the zeta-free series.

    B_nu^(0) is J_nu(beta_c nu) / nu^2.  The convolution in B_nu^(1)
    comes from one downward Bessel recurrence over the orders
    nu-mu_max..nu+mu_max of every row at once
    (``kapteyn._kapteyn_convolution``: Miller-started above the top
    order, reflected to the negative orders of rows nu < mu_max, scaled
    to one ``bessel_j`` value near the turning point, the call that also
    gives J_nu(beta_c nu)); it matches the per-mu sum of AMOS's J values
    to 2e-12 of the row's sum of |terms|.  G_0..G_mu_max are one slice of
    the G table g_coeff reads (the same table, so the same values, for
    every mu_max below 512).  Memory stays O(nu_max).  Memoized per
    (beta_c, nu_max, mu_max); the two arrays are shared and read-only.
    """
    g = _g_table(beta_c, max(512, 1 << mu_max.bit_length()))[:mu_max + 1]
    nu = np.arange(1, nu_max + 1)
    # mu and -mu combined; G_{-mu} = G_mu
    conv, diagonal = _kapteyn_convolution(beta_c, nu_max, np.arange(mu_max + 1) * g)
    classical = np.concatenate(([-beta_c**2 / 4.0], diagonal / nu**2))
    b0 = g_coeff(0, beta_c) - beta_c * g_coeff(1, beta_c)
    quantum = np.concatenate(([b0], conv / nu))
    classical.flags.writeable = False
    quantum.flags.writeable = False
    return classical, quantum


def eg_eval(series: EgSeries, phi_x):
    """Series evaluation B_0 + 2 sum_{nu>0} B_nu cos(nu phi_x)."""
    return FourierSeries(series.nu_max, series.coeffs, parity="even")(phi_x)


def eg_exact(params: CouplerParams, phi_x, n_basis: int = 50, n_levels: int = 6):
    """Lowest coupler levels by dense diagonalization on the grid.

    Energies are in units of E_Ltc.  The basis is the n_basis-point
    Gauss-Hermite grid of the beta = 0 oscillator (frequency 2 zeta,
    quadrature amplitude sqrt(zeta)), the eigenbasis of its truncated
    quadrature: the ladder is a dense kinetic factor there, and the
    junction term beta cos(phi_x + sqrt(zeta) x) is diagonal.  A scalar
    bias is a one-point grid: its levels are the lowest n_levels of
    oscillator.lowest_eigs on that one-axis operator, one np.linalg.eigh
    with every returned pair's residual checked; n_levels must lie in
    [1, n_basis].

    A 1-D array of biases, with n_levels = 1, gives an (N, 1) array: the
    ground level followed along the array (see _ground_states), so a row
    after the first can differ from its scalar call by rounding.
    """
    if n_basis < 30:
        raise ConfigurationError(f"n_basis must be >= 30, got {n_basis}")
    if not 1 <= n_levels <= n_basis:
        raise ConfigurationError(f"n_levels must be in [1, {n_basis}], got {n_levels}")
    phis = _biases(phi_x)
    if phis.ndim and n_levels != 1:
        raise ConfigurationError("an array of biases follows the ground level only;"
                                 f" n_levels must be 1, got {n_levels}")
    states = _ground_states(params, np.atleast_1d(phis), n_basis, max(2, n_levels))
    if phis.ndim:
        return np.array([state[3] for state in states]).reshape(-1, 1)
    return next(states)[2][:n_levels]


def eg_derivs_analytic(beta_c: float, zeta_c: float, phi_cx: float) -> tuple:
    """(E_g', E_g'') from the closed-form minimum plus harmonic ZPE.

    With chi the Kepler root at phi_cx and D = 1 - beta cos(chi):

        E_g'  = -beta sin(chi) (1 - zeta / (2 D^{3/2}))
        E_g'' = -beta cos(chi)/D
                + (zeta beta / 2)(cos(chi)/D^{5/2} - 3 beta sin^2(chi)/(2 D^{7/2}))

    Both diverge as beta cos(chi) -> 1; values are returned as they
    come (possibly non-finite), never clamped.  An array of biases gives
    two arrays, a scalar bias two floats.
    """
    chi = kepler_solve(beta_c, phi_cx)
    s, c = np.sin(chi), np.cos(chi)
    d = 1.0 - beta_c * c
    d1 = -beta_c * s * (1.0 - zeta_c / (2.0 * d**1.5))
    d2 = -beta_c * c / d + 0.5 * zeta_c * beta_c * (c / d**2.5 - 1.5 * beta_c * s**2 / d**3.5)
    return (d1, d2) if np.ndim(phi_cx) else (float(d1), float(d2))


def _biases(phi_x) -> np.ndarray:
    phis = np.asarray(phi_x, dtype=float)
    if phis.ndim > 1:
        raise ConfigurationError(f"biases must be a scalar or a 1-D array, got shape {phis.shape}")
    return phis


def _continued_ground(h: np.ndarray, h_norm: float, g: np.ndarray, shift: float):
    """The ground pair (theta, g) of h by Rayleigh-quotient iteration from g.

    Steps theta = g^T H g, (H - theta) y = g, g = y / ||y|| run until the
    residual ||H g - theta g|| is at the rounding floor eps ||H||_F / 4
    (_RQI_FLOOR; the dense gate / 256), at most _RQI_STEPS solves.  The
    iteration converges cubically (Parlett, The Symmetric Eigenvalue
    Problem, sec. 4.6), a residual r going to about r^3 / gap^2, so from
    a predicted start (_predicted) one or two solves reach the rounding of
    forming H g - theta g itself, and no step after that lowers it.  The
    floor sits between two measured bounds, over 33,600 continued points
    at 40 to 80 states, beta_c 0.1..0.99 and zeta_c 0.01..0.5.  From
    below, that rounding level: its median was eps ||H||_F / 16, and it
    lay above eps ||H||_F / 8 at 2.3% of the points and above / 4 at
    0.15%.  Such a point spends its steps and is solved from scratch.
    From above, accuracy: the vector's error, about r / gap, enters E_g''
    at first order.  With the floor at eps ||H||_F the grid left its
    scalar calls by up to 2.1e-13 of a column (beta 0.3, zeta 0.25); at
    / 4, by at most 8.9e-14, the scatter of eigh's own vectors, whose
    residuals run to about eps ||H||_F.

    The pair is certified by a residual at most min(dense gate, _GAP_TOL)
    and a Cholesky factorization of

        A = H - theta + shift g g^T - _GAP_TOL,

    shift > _GAP_TOL.  A positive definite A puts the second eigenvalue of
    H above theta + _GAP_TOL (a rank-one update moves each eigenvalue at
    most up to the next).  The residual puts an eigenvalue within
    _GAP_TOL of theta, so that eigenvalue is the ground level, isolated
    by more than _GAP_TOL.  None when the floor is not reached or the
    certificate fails.
    """
    eye = np.eye(len(h))
    floor = _RQI_FLOOR * np.finfo(float).eps * h_norm
    try:
        for step in range(_RQI_STEPS + 1):
            hg = h @ g
            theta = g @ hg
            r = hg - theta * g
            resid = math.sqrt(r @ r)
            if resid <= floor:
                break
            if step == _RQI_STEPS:
                return None
            g = np.linalg.solve(h - theta * eye, g)
            g /= math.sqrt(g @ g)
        if not resid <= min(_residual_bound(0.0, h_norm), _GAP_TOL):
            return None
        np.linalg.cholesky(h - (theta + _GAP_TOL) * eye + shift * np.outer(g, g))
    except np.linalg.LinAlgError:
        return None
    return theta, g


def _predicted(history, phi: float) -> np.ndarray:
    """Start vector at phi from the (bias, ground vector) pairs of history.

    With three distinct biases it is their quadratic Lagrange
    extrapolation, normalized; the weights take any spacing, and a bias
    already in history gets its own vector.  With fewer, it is the last
    vector.
    """
    if len(history) < 3:
        return history[-1][1]
    (x0, g0), (x1, g1), (x2, g2) = history
    g = ((phi - x1) * (phi - x2) / ((x0 - x1) * (x0 - x2)) * g0
         + (phi - x0) * (phi - x2) / ((x1 - x0) * (x1 - x2)) * g1
         + (phi - x0) * (phi - x1) / ((x2 - x0) * (x2 - x1)) * g2)
    return g / math.sqrt(g @ g)


def _ground_states(params: CouplerParams, phis, n_basis: int, n_levels: int = 2):
    """Yield (H, flux nodes, levels, E_g, ground vector) along the biases.

    H is the dense junction matrix (oscillator._junction_matrix) the
    continuation and the resolvent solves factor.  The first bias, and any
    whose continuation fails, is solved from scratch: oscillator.lowest_eigs
    on the one-axis grid operator gives its lowest n_levels (at least 2,
    the ground level and the gap) and the ground vector, every returned
    pair's residual checked.  Each later bias starts from the
    quadratic extrapolation of the last three accepted ground vectors
    (_predicted; the previous vector until three distinct biases are in)
    and takes Rayleigh-quotient steps to the rounding floor
    (_continued_ground, shift 2 zeta, the harmonic spacing); it yields
    levels None.  On a 201-point grid over [0, pi] at 60 states that is
    one or two LU solves per point.  Either route may return -g, so each
    vector is signed to match the previous one before it is yielded and
    kept.  A scalar call is a one-point grid, so it takes the from-scratch
    route.
    """
    shift = 2.0 * params.zeta_c
    history = []
    for phi in phis:
        kinetic, potential, flux = _junction_mode(params.zeta_c, params.beta_c, phi, n_basis)
        h, h_norm = _junction_matrix(kinetic, potential)
        found = None
        if history:
            found = _continued_ground(h, h_norm, _predicted(history, phi), shift)
        levels = None
        if found is None:
            spectrum = lowest_eigs(TensorOperator([kinetic], potential), n_levels,
                                   want_vectors=True)
            levels = spectrum.eigenvalues
            found = levels[0], spectrum.eigenvectors[:, 0]
        energy, g = found
        if history and g @ history[-1][1] < 0.0:
            g = -g
        # the last three distinct biases, the newest last
        history = [pair for pair in history if pair[0] != phi][-2:] + [(phi, g)]
        yield h, flux, levels, energy, g


def _perturbative(params: CouplerParams, phis, n_basis: int, what: str) -> np.ndarray:
    """Rows (E_g, E_g', E_g'', <d g|d g>) at each bias, one resolvent solve each.

    X = sqrt(zeta) (a + a^dag), the displacement from the quadratic
    minimum, is the diagonal of flux nodes on the grid.  E_g' = -<g|X|g>.
    With b = Q X g (Q = 1 - |g><g|) and y the solution of

        (H - E_g + 2 zeta |g><g|) y = b,

    y = sum_{k>0} |k><k|X|g> / (E_k - E_g) plus a multiple of g, so E_g'' =
    1 - 2 b^T y and the diagonal correction is ||Q y||^2: the sums over
    every level, without the levels.  A ground state within _GAP_TOL of
    the next level raises NumericError, since ``what`` (a perturbative
    quantity) is then ill-conditioned.
    """
    if n_basis < 30:
        raise ConfigurationError(f"n_basis must be >= 30, got {n_basis}")
    rows = []
    shift = 2.0 * params.zeta_c
    for h, flux, levels, energy, g in _ground_states(params, phis, n_basis):
        if levels is not None and levels[1] - levels[0] < _GAP_TOL:
            raise NumericError(
                f"ground state nearly degenerate; {what} ill-conditioned",
                {"gap": float(levels[1] - levels[0])},
            )
        xg = flux * g
        mean = g @ xg
        b = xg - mean * g
        y = np.linalg.solve(h - energy * np.eye(len(h)) + shift * np.outer(g, g), b)
        qy = y - (g @ y) * g
        rows.append((energy, -mean, 1.0 - 2.0 * (b @ y), qy @ qy))
    return np.array(rows).reshape(-1, 4)


def eg_derivs_numeric(params: CouplerParams, phi_cx, n_basis: int = 50) -> tuple:
    """(E_g', E_g'') from perturbation theory on the exact ground state.

    First order: E_g' = <g|(phi_x - phi_c)|g> = -<g|X|g> with X the
    displacement from the quadratic minimum.  Second order: E_g'' =
    1 + 2 <g| X (E_g - H_c)^+ X |g>, the pseudo-inverse excluding the
    ground component (scalar shifts of X drop out against it), from one
    linear solve (see _perturbative).  A 1-D array of biases gives two
    arrays, with the ground state followed along the array; a scalar
    bias gives two floats.
    """
    return _ground_energy_derivs(params, phi_cx, n_basis)[1:]


def _ground_energy_derivs(params: CouplerParams, phi_x, n_basis: int) -> tuple:
    """(E_g, E_g', E_g'') from one coupler solve per bias: eg_exact's ground
    level and eg_derivs_numeric's derivatives, bitwise at a scalar bias."""
    phis = _biases(phi_x)
    rows = _perturbative(params, np.atleast_1d(phis), n_basis, "perturbation theory")
    if phis.ndim:
        return rows[:, 0], rows[:, 1], rows[:, 2]
    return tuple(float(v) for v in rows[0, :3])


def _tail_bounds(beta_c: float, zeta_c: float, nu_max: int) -> np.ndarray:
    """|r0 + zeta_c r1| after each order 1..nu_max.

    r0 and r1 are the closed-form classical and quantum tails less twice
    the coefficients kept so far: what a series cut at that order omits,
    with the relative sign it carries in E_g.
    """
    series = b_coeffs(beta_c, zeta_c, nu_max)
    tail0 = beta_c + beta_c**2 / 4.0
    # b_quantum's nu = 0 coefficient is G_0 - beta_c G_1
    tail1 = math.sqrt(1.0 - beta_c) - series.b_quantum.coeffs[0]
    r0 = tail0 - 2.0 * np.cumsum(series.b_classical.coeffs[1:])
    r1 = tail1 - 2.0 * np.cumsum(series.b_quantum.coeffs[1:])
    return np.abs(r0 + zeta_c * r1)


def truncation_bound(beta_c: float, zeta_c: float, nu_max: int) -> float:
    """Bound on the coupling error from truncating the series at nu_max.

    The classical and quantum tails are known in closed form; they are
    combined with the relative signs they carry in E_g before taking
    the magnitude, since that signed combination is what a truncated
    coupling computation actually omits.  Raises NumericError where
    |mu G_mu| stays above 1e-16 up to mu = 399 (beta_c from about
    0.9969 up), since the bound would then not hold.
    """
    if not 0.0 <= beta_c < 1.0:
        raise ValueError(f"truncation_bound requires 0 <= beta_c < 1, got {beta_c}")
    if beta_c == 0.0:
        return 0.0
    return float(_tail_bounds(beta_c, zeta_c, nu_max)[-1])


def min_nu_for_error(beta_c: float, zeta_c: float, epsilon: float) -> int:
    """Smallest nu_max whose truncation bound is at most epsilon.

    Raises NumericError where ``truncation_bound`` would.
    """
    if not epsilon > 0.0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if not 0.0 <= beta_c < 1.0:
        raise ValueError(f"min_nu_for_error requires 0 <= beta_c < 1, got {beta_c}")
    if beta_c == 0.0:
        return 1
    cap = 64
    while True:
        bound = _tail_bounds(beta_c, zeta_c, min(cap, MIN_NU_CAP))
        hits = np.nonzero(bound <= epsilon)[0]
        if len(hits):
            return int(hits[0]) + 1
        if cap >= MIN_NU_CAP:
            raise NumericError(
                f"no nu_max below {MIN_NU_CAP} reaches bound {epsilon}",
                {"best": float(bound.min())},
            )
        cap *= 4


@dataclass(frozen=True)
class BodcMetrics:
    """Diagonal-correction size and the smallness criterion's two sides."""

    exact_norm: float
    linearized_norm: float
    smallness_lhs: float
    smallness_rhs: float


def bodc_metrics(params: CouplerParams, phi_x: float, n_basis: int = 50,
                 qubits=()) -> BodcMetrics:
    """Born-Oppenheimer diagonal correction <d psi_g | d psi_g>.

    exact_norm is sum_{k>0} |<k|X|g>|^2 / (E_k - E_g)^2, from one
    resolvent solve on the exact ground state; linearized_norm is
    the harmonic estimate 1/(4 zeta (1 - beta cos chi)^{3/2}).  The
    smallness sides compare the qubit-side energy scale against the
    coupler stiffness: lhs = 2 sum_j E_Lj zeta_j^2 alpha_j^2 / E_Ltc,
    rhs = 4 zeta_c^2 (1 - beta_c)^2; the correction is negligible when
    lhs << rhs.
    """
    exact = float(_perturbative(params, [phi_x], n_basis, "diagonal correction")[0, 3])
    chi = kepler_solve(params.beta_c, phi_x)
    d = 1.0 - params.beta_c * math.cos(chi)
    linearized = 1.0 / (4.0 * params.zeta_c * d**1.5)
    lhs = 2.0 * sum(q.e_lj * q.zeta_j**2 * q.alpha_j**2 for q in qubits) / params.e_ltc
    rhs = 4.0 * params.zeta_c**2 * (1.0 - params.beta_c) ** 2
    return BodcMetrics(exact, linearized, lhs, rhs)
