"""Closed-form scalar formulas for the worked single- and two-qubit cases.

These deliberately avoid every matrix routine in the package (plain math and
cmath only) so they can cross-check the generic pipeline without sharing a
code path with it. Times are quoted in the natural dimensionless units of
each model: n-rotation angle for the unitary qubit, Gamma*t for the
depolarizing channel, lambda*t for amplitude damping (rates set to 1).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .entropy import EntropyParams
from .errors import InvalidParamsError, ZeroVarianceError


def xi(s_exp: float, r: float, sign: int) -> float:
    """2^(-s) [(1+r)^s + sign (1-r)^s]."""
    if sign not in (1, -1):
        raise InvalidParamsError(f"sign must be +1 or -1, got {sign}")
    return 2.0 ** (-s_exp) * ((1.0 + r) ** s_exp + sign * (1.0 - r) ** s_exp)


def xi_plus(s_exp: float, r: float) -> float:
    return xi(s_exp, r, 1)


def xi_minus(s_exp: float, r: float) -> float:
    return xi(s_exp, r, -1)


@dataclass(frozen=True)
class QubitUnitaryCase:
    """Bloch probe (r, theta, phi) rotating under the field direction n."""

    r: float
    theta: float
    phi: float
    n: tuple[float, float, float]
    t: float

    @property
    def norm_n(self) -> float:
        return math.sqrt(sum(c * c for c in self.n))

    @property
    def cos_vartheta(self) -> float:
        """Cosine of the angle between the field axis and the Bloch axis."""
        rhat = (
            math.sin(self.theta) * math.cos(self.phi),
            math.sin(self.theta) * math.sin(self.phi),
            math.cos(self.theta),
        )
        nn = self.norm_n
        return sum(a * b for a, b in zip(self.n, rhat)) / nn


def unitary_purity(case: QubitUnitaryCase, p: EntropyParams) -> float:
    """Relative purity between the rotated and initial Bloch states."""
    r, z, a = case.r, p.z, p.alpha
    sin2 = math.sin(case.norm_n * case.t) ** 2
    eps = 0.5 * (
        xi_plus(1.0 / z, r)
        - xi_minus(a / z, r) * xi_minus((1.0 - a) / z, r) * (1.0 - case.cos_vartheta**2) * sin2
    )
    inner = 1.0 - (1.0 - r * r) ** (1.0 / z) / (2.0 ** (2.0 / z) * eps * eps)
    root = math.sqrt(max(inner, 0.0))
    return eps**z * ((1.0 - root) ** z + (1.0 + root) ** z)


def omega_ratio(alpha: float, r: float, vartheta: float) -> float:
    """Ratio of the trace-norm speed limit to its 2-norm predecessor;
    stays within [0, ~1] over the whole parameter range."""
    num = xi_minus(alpha, r) * math.sqrt(xi_plus(2.0 - 2.0 * alpha, r)) * math.sin(vartheta)
    den = alpha * math.sqrt(2.0 * (1.0 - r * r * math.cos(vartheta) ** 2))
    return num / den * ((1.0 - r) / (1.0 + r)) ** (1.0 - alpha)


def unitary_tau_petz(case: QubitUnitaryCase, alpha: float) -> float:
    """Forward unitary speed limit at z = 1 in closed form."""
    r = case.r
    cosv = case.cos_vartheta
    if 1.0 - cosv * cosv <= 1e-24:
        raise ZeroVarianceError("probe is incoherent (field parallel to Bloch axis)")
    variance_term = 1.0 - (cosv * r) ** 2
    g = unitary_purity(case, EntropyParams(alpha, 1.0))
    num = -abs(1.0 + (1.0 - alpha) * math.log((1.0 - r) / 2.0)) * math.log(g)
    den = (
        2.0
        * alpha
        * (1.0 + r) ** (1.0 - alpha)
        * (1.0 - r) ** (alpha - 1.0)
        * case.norm_n
        * math.sqrt(variance_term)
    )
    return num / den


@dataclass(frozen=True)
class DepolarizingCase:
    r: float
    gamma_tau: float


def depolarizing_entropy(case: DepolarizingCase, alpha: float) -> float:
    """Entropy between the contracted and initial Bloch states; independent
    of z and of the Bloch angles."""
    r, a = case.r, alpha
    e = math.exp(-case.gamma_tau)
    num = (1.0 - r) ** (a - 1.0) * (1.0 + e * r) ** a + (1.0 + r) ** (a - 1.0) * (1.0 - e * r) ** a
    return (math.log(num) - math.log(2.0 * (1.0 - r * r) ** (a - 1.0))) / (a - 1.0)


def depolarizing_entropy_limit(r: float, alpha: float) -> float:
    """Late-time asymptote: the purity tends to
    ((1-r)^(1-a) + (1+r)^(1-a))/2."""
    g = 0.5 * ((1.0 - r) ** (1.0 - alpha) + (1.0 + r) ** (1.0 - alpha))
    return math.log(g) / (alpha - 1.0)


def depolarizing_entropy_small_time(r: float, alpha: float, gamma_tau: float) -> float:
    """Leading quadratic behavior alpha r^2 (Gamma tau)^2 / (2 (1 - r^2))."""
    return alpha * r * r * gamma_tau * gamma_tau / (2.0 * (1.0 - r * r))


def depolarizing_tau(case: DepolarizingCase, p: EntropyParams) -> float:
    """Forward nonunitary speed limit for the depolarizing channel, in units
    of 1/Gamma (so the horizon equals gamma_tau)."""
    r, a, z = case.r, p.alpha, p.z
    gt = case.gamma_tau
    e = math.exp(-gt)
    denom_sum = (1.0 - r) ** (a - 1.0) * (1.0 + e * r) ** a + (1.0 + r) ** (a - 1.0) * (
        1.0 - e * r
    ) ** a
    log_term = math.log(2.0 * (1.0 - r * r) ** (a - 1.0) / denom_sum)
    den = 3.0 * ((1.0 - r) ** (z - 1.0) * (1.0 + r)) ** ((1.0 - a) / z) * (
        (1.0 - e * r) ** a - (1.0 - r) ** a
    )
    return 2.0 * gt * r * abs(1.0 + (1.0 - a) * math.log((1.0 - r) / 2.0)) * log_term / den


@dataclass(frozen=True)
class TwoQubitADCase:
    p: float
    lambda_tau: float
    s: float


def ad_gamma(lambda_t: float, s: float) -> float:
    """Decoherence amplitude at dimensionless time lambda*t, via the complex
    square root (real for every s >= 0)."""
    if abs(s - 0.5) < 1e-9:
        return math.exp(-lambda_t / 2.0) * (1.0 + lambda_t / 2.0)
    q = cmath.sqrt(1.0 - 2.0 * s)
    val = cmath.exp(-lambda_t / 2.0) * (cmath.cosh(lambda_t / 2.0 * q) + cmath.sinh(lambda_t / 2.0 * q) / q)
    return val.real


def ad_gamma_dt(lambda_t: float, s: float) -> float:
    """d gamma / d(lambda t)."""
    if abs(s - 0.5) < 1e-9:
        return -(lambda_t / 4.0) * math.exp(-lambda_t / 2.0)
    q = cmath.sqrt(1.0 - 2.0 * s)
    val = -(s / q) * cmath.exp(-lambda_t / 2.0) * cmath.sinh(lambda_t / 2.0 * q)
    return val.real


def ad_kmin(case: TwoQubitADCase) -> float:
    """Smallest eigenvalue of the damped two-qubit state: the smaller root
    m - r of its {|00>, |11>} block, taken as det / (m + r) so that it
    keeps its digits as it vanishes. With g2 = gamma^2 and u = 1 - g2, the
    determinant is g2^2/16 [(1 - p)(1 + 3p) + 2 (1 - p^2) u + (1 + p)^2 u^2],
    a sum of non-negative terms; m = 1/2 - b, where the {|01>, |10>}
    population b is at most 1/4, and r = |(u, p g2)|/2."""
    g2 = ad_gamma(case.lambda_tau, case.s) ** 2
    p = case.p
    u = 1.0 - g2
    det = 0.0625 * g2 * g2 * (
        (1.0 - p) * (1.0 + 3.0 * p) + 2.0 * (1.0 - p * p) * u + ((1.0 + p) * u) ** 2
    )
    m = 0.5 - 0.25 * g2 * (2.0 - (1.0 + p) * g2)
    r = 0.5 * math.hypot(u, p * g2)
    return det / (m + r)


def ad_kraus_norm_sum(case: TwoQubitADCase) -> float:
    """Summed trace norms of the Kraus rate terms, in units of lambda."""
    p = case.p
    g = ad_gamma(case.lambda_tau, case.s)
    dg = ad_gamma_dt(case.lambda_tau, case.s)
    g2 = g * g
    return 0.5 * abs(g * dg) * (
        2.0 * (1.0 - p)
        + (1.0 + p) * (abs(1.0 - g2) + abs(1.0 - 2.0 * g2))
        + math.sqrt(4.0 * p * p + (1.0 + p) ** 2 * g2 * g2)
    )
