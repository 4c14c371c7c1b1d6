"""Reference distributions for the random-walk calibration statistics.

All functions are pure and stateless.  The two sup-type CDFs are evaluated
from alternating exponential series; each has a second, theta-transformed
form that converges quickly exactly where the first one does not, so the
implementations switch forms at a fixed crossover.  Survival functions are
computed directly (not as ``1 - cdf``) so that extreme statistics do not
lose precision to cancellation.  The chi-square survival serves Fisher's
combination in the bridge test and the Hosmer-Lemeshow and LR comparators.
"""

from __future__ import annotations

import itertools
import math

from .data import _integer

_SQRT_2PI = math.sqrt(2.0 * math.pi)

# Below this the sup CDFs are < 1e-200: return 0 outright instead of
# exercising series whose prefactors blow up as the terms underflow.
_TINY_STAT = 0.05

# sup-|BM| survival mass above 10 is ~3e-23, beyond double resolution.
_BM_SATURATION = 10.0

# Kolmogorov series crossover: theta form below, alternating form above.
_KOLMOGOROV_CROSSOVER = 1.0

# Symmetric-k cap for the conditional sup series.
_CONDITIONAL_MAX_K = 50

# Series truncation: stop at the first term below the tolerance, and sum
# at most _MAX_TERMS terms of the exponential series.
_TERM_TOLERANCE = 1e-16
_MAX_TERMS = 200

# Gamma shape from which the incomplete-gamma prefactor uses Stirling's
# series (chi-square df >= 20000); below it lgamma is exact enough.
_STIRLING_MIN_SHAPE = 1e4


def _check_nonnegative(a, name="a"):
    if not a >= 0:  # also rejects NaN
        raise ValueError(f"{name} must be nonnegative, got {a}")


def _clip_probability(p):
    if math.isnan(p):  # min/max would turn it into 0.0
        raise ValueError("probability evaluated to NaN")
    return min(1.0, max(0.0, p))


def sup_abs_bm_cdf(a: float) -> float:
    """CDF of the supremum of |W(t)| over [0, 1] for standard BM W.

    F(a) = (4/pi) * sum_{k>=0} (-1)^k / (2k+1) * exp(-(2k+1)^2 pi^2 / (8 a^2))
    """
    _check_nonnegative(a)
    if a < _TINY_STAT:
        return 0.0
    if a >= _BM_SATURATION:
        return 1.0
    coeff = math.pi * math.pi / (8.0 * a * a)
    total = 0.0
    for k in range(_MAX_TERMS):
        m = 2 * k + 1
        term = math.exp(-coeff * m * m) / m
        total += term if k % 2 == 0 else -term
        if term < _TERM_TOLERANCE:
            break
    return _clip_probability(4.0 / math.pi * total)


def sup_abs_bm_sf(a: float) -> float:
    """P(sup |W(t)| >= a), via the reflection series.

    1 - F(a) = 4 * sum_{k>=0} (-1)^k * Phi(-(2k+1) a).  Evaluating the
    survival side directly keeps full precision when F(a) is near 1.
    """
    _check_nonnegative(a)
    if a < _TINY_STAT:
        return 1.0
    total = 0.0
    for k in range(_MAX_TERMS):
        term = std_normal_cdf(-(2 * k + 1) * a)
        total += term if k % 2 == 0 else -term
        if term < _TERM_TOLERANCE:
            break
    return _clip_probability(4.0 * total)


def _kolmogorov_sf_alternating(a: float) -> float:
    # 1 - G(a) = 2 sum_{k>=1} (-1)^(k-1) exp(-2 a^2 k^2); fast for a above ~1.
    total = 0.0
    for k in range(1, _MAX_TERMS + 1):
        term = 2.0 * math.exp(-2.0 * a * a * k * k)
        total += -term if k % 2 == 0 else term
        if term < _TERM_TOLERANCE:
            break
    return total


def _kolmogorov_cdf_alternating(a: float) -> float:
    return 1.0 - _kolmogorov_sf_alternating(a)


def _kolmogorov_cdf_theta(a: float) -> float:
    # Theta-transformed dual: (sqrt(2 pi)/a) sum_{k>=1} exp(-(2k-1)^2 pi^2/(8 a^2));
    # fast for a below ~1.
    coeff = math.pi * math.pi / (8.0 * a * a)
    total = 0.0
    for k in range(1, _MAX_TERMS + 1):
        m = 2 * k - 1
        term = math.exp(-coeff * m * m)
        total += term
        if term < _TERM_TOLERANCE:
            break
    return _SQRT_2PI / a * total


def kolmogorov_cdf(a: float) -> float:
    """CDF of the Kolmogorov distribution (sup |Brownian bridge|)."""
    _check_nonnegative(a)
    if a < _TINY_STAT:
        return 0.0
    if a < _KOLMOGOROV_CROSSOVER:
        return _clip_probability(_kolmogorov_cdf_theta(a))
    return _clip_probability(_kolmogorov_cdf_alternating(a))


def kolmogorov_sf(a: float) -> float:
    """P(sup |B(t)| >= a), computed without cancellation for large a."""
    _check_nonnegative(a)
    if a < _TINY_STAT:
        return 1.0
    if a < _KOLMOGOROV_CROSSOVER:
        # G < 0.73 here, so the complement is well conditioned.
        return _clip_probability(1.0 - _kolmogorov_cdf_theta(a))
    return _clip_probability(_kolmogorov_sf_alternating(a))


def _kolmogorov_sf_and_log(a: float) -> tuple[float, float]:
    """``kolmogorov_sf(a)`` and its log, which stays finite when the
    survival underflows."""
    sf = kolmogorov_sf(a)
    if sf > 0.0:
        return sf, math.log(sf)
    return sf, math.log(2.0) - 2.0 * a * a


def conditional_sup_cdf(a: float, b: float) -> float:
    """P(sup |W(t)| < a | W(1) = b) for standard BM on [0, 1].

    Series: sum_{k in Z} (-1)^k exp(-2 a k (a k - b)).  The path ends at
    |b|, so the probability is 0 whenever a <= |b|, and 1 for infinite a.
    """
    _check_nonnegative(a)
    if not math.isfinite(b):
        raise ValueError(f"b must be finite, got {b}")
    if a <= abs(b):
        return 0.0
    if a < 2.0 * _TINY_STAT:
        # true mass here is < 1e-50; the alternating sum would need |k| > 50
        return 0.0
    total = 1.0
    for k in range(1, _CONDITIONAL_MAX_K + 1):
        ak = a * k
        # factored, the exponents keep their digits where a k is close to
        # |b|; both are <= 0 because |b| < a, and -inf for infinite a
        pair = math.exp(-2.0 * ak * (ak - b)) + math.exp(-2.0 * ak * (ak + b))
        total += pair if k % 2 == 0 else -pair
        if pair < _TERM_TOLERANCE:
            break
    return _clip_probability(total)


def std_normal_cdf(x: float) -> float:
    """Standard normal CDF to full double accuracy."""
    return 0.5 * math.erfc(-x / math.sqrt(2.0))


def _normal_two_sided_p_and_log(x: float) -> tuple[float, float]:
    """2 * Phi(-|x|), rounded as ``2 * std_normal_cdf(-abs(x))``, and its
    log from the unscaled erfc, with an asymptotic continuation past erfc
    underflow.  The two differ where 0.5 * erfc rounds into the subnormals.
    """
    x = abs(x)
    tail = math.erfc(x / math.sqrt(2.0))
    p = min(1.0, 2.0 * (0.5 * tail))
    if tail > 0.0:
        return p, math.log(tail)
    return p, -0.5 * x * x - math.log(x * math.sqrt(math.pi / 2.0))


def _log_gamma_prefactor(s, x):
    # log(x^s exp(-x) / Gamma(s)).  Its terms are ~s log x, so for large s
    # the direct form cancels to an absolute error ~s * 1e-16; the Stirling
    # form s * (u - log1p(u)), u = (x - s) / s, does not.
    if s < _STIRLING_MIN_SHAPE:
        return s * math.log(x) - x - math.lgamma(s)
    u = (x - s) / s
    s2 = s * s
    # lgamma(s) - [(s - 1/2) log s - s + log(2 pi) / 2], asymptotic series
    correction = (1.0 / 12.0 - (1.0 / 360.0 - (1.0 / 1260.0
                  - 1.0 / (1680.0 * s2)) / s2) / s2) / s
    return (-s * (u - math.log1p(u)) + 0.5 * math.log(s / (2.0 * math.pi))
            - correction)


def _reg_upper_gamma(s, x):
    # Regularized upper incomplete gamma Q(s, x); series for the lower tail,
    # Lentz continued fraction for the upper.  Relative accuracy ~1e-14.
    if x == 0.0:
        return 1.0
    if x < s + 1.0:
        # the term ratio x / (s + k) is below 1 from the first term on, so
        # the series converges; large s needs up to a few thousand terms
        term = 1.0 / s
        total = term
        k = 1
        while True:
            term *= x / (s + k)
            total += term
            if term < total * _TERM_TOLERANCE:
                break
            k += 1
        log_p = _log_gamma_prefactor(s, x) + math.log(total)
        return max(0.0, 1.0 - math.exp(log_p))
    # the fraction converges for every finite x >= s + 1, just above s in
    # about sqrt(s) steps, so it runs to its tolerance with no step cap
    tiny = 1e-300
    b = x + 1.0 - s
    c = 1.0 / tiny
    d = 1.0 / b
    h = d
    for i in itertools.count(1):
        an = -i * (i - s)
        b += 2.0
        d = an * d + b
        if abs(d) < tiny:
            d = tiny
        c = b + an / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            break
    return min(1.0, math.exp(_log_gamma_prefactor(s, x)) * h)


def chi_square_sf(x: float, df: int) -> float:
    """Survival function of chi-square with ``df`` degrees of freedom.

    Even df with x < 1400 uses the finite closed-form sum, e.g.
    exp(-x/2) * (1 + x/2) for 4 df; odd df and larger x fall back to the
    regularized upper incomplete gamma.
    """
    _check_nonnegative(x, "x")
    df = _integer("df", df, 1)
    if x == math.inf:
        return 0.0
    # exp(-x / 2) underflows past x ~ 1400, so larger x (and with it large
    # even df, whose mass sits near x = df) goes through log space
    if df % 2 == 0 and x < 1400:
        half = 0.5 * x
        term = 1.0
        total = 1.0
        for j in range(1, df // 2):
            term *= half / j
            total += term
        return min(1.0, math.exp(-half) * total)
    return _reg_upper_gamma(0.5 * df, 0.5 * x)


def critical_value(distribution: str, level: float) -> float:
    """Invert a sup-statistic CDF: the a with CDF(a) = level.

    ``distribution`` is ``"sup_abs_bm"`` or ``"kolmogorov"``.  Bisection on
    [1e-6, 10] to an absolute tolerance of 1e-9.
    """
    if not 0.0 < level < 1.0:
        raise ValueError(f"level must be inside (0, 1), got {level}")
    if distribution == "sup_abs_bm":
        cdf = sup_abs_bm_cdf
    elif distribution == "kolmogorov":
        cdf = kolmogorov_cdf
    else:
        raise ValueError(f"unknown distribution {distribution!r}")
    lo, hi = 1e-6, 10.0
    while hi - lo > 1e-9:
        mid = 0.5 * (lo + hi)
        if cdf(mid) < level:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
