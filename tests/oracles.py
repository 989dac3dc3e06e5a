"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written from first principles with numpy /
scipy primitives and must NOT call into the package's own math.  Package
types appear only as plain data (term lists, floats) handed in by tests.

Contents:

* symbolic differentiation + dense-grid suprema for worst-case-slope checks
  (``diff_terms``, ``grid_max_abs``, ``eval_terms``), and corner suprema by
  enumeration (``corner_max_abs``) or by a numpy fold (``corner_fold_max_abs``)
* products, powers and scalings of term lists in the package's order of
  float operations (``mul_terms``, ``power_terms``, ``scale_terms``)
* golden-section minimisation of the order-to-(eps, delta) conversion curve
  (``golden_eps``, ``rho_cap``)
* log-domain quadrature of the Renyi divergence between two equal-variance
  Gaussians (``renyi_divergence_quad``) with its closed form
  (``renyi_divergence_exact``)
* the analytic inverse of the conversion for single-entity noise calibration
  (``analytic_rho_for_eps``, ``analytic_sigma``)
* the outbound-message leak scan as one recursive call per value
  (``leak_scan``)
"""

from __future__ import annotations

import math
from itertools import product as iter_product

import numpy as np
from scipy import integrate, optimize

# -- polynomial reference -------------------------------------------------------------
#
# A term list is [(coeff, {name: exponent, ...}), ...] with plain-string
# variable names and positive integer exponents.  This mirrors no package
# type on purpose; tests convert to it by hand.


def eval_terms(terms, point: dict) -> float:
    """Evaluate a term list at a point (plain dict of name -> value)."""
    total = 0.0
    for coeff, powers in terms:
        val = coeff
        for name, exp in powers.items():
            val *= point[name] ** exp
        total += val
    return total


def diff_terms(terms, name: str):
    """Symbolic partial derivative of a term list with respect to one variable."""
    out = []
    for coeff, powers in terms:
        exp = powers.get(name, 0)
        if exp == 0:
            continue
        new_powers = {n: e for n, e in powers.items() if n != name}
        if exp > 1:
            new_powers[name] = exp - 1
        out.append((coeff * exp, new_powers))
    return out


def eval_terms_grid(terms, grids: dict) -> np.ndarray:
    """Evaluate a term list on a meshgrid (dict of name -> broadcastable array)."""
    total = None
    for coeff, powers in terms:
        val = np.asarray(coeff, dtype=float)
        for name, exp in powers.items():
            val = val * grids[name] ** exp
        total = val if total is None else total + val
    if total is None:
        return np.asarray(0.0)
    return np.asarray(total, dtype=float)


def grid_max_abs(terms, box: dict, points_per_axis: int = 41) -> float:
    """Dense-grid supremum of |term list| over an axis-aligned box.

    ``box`` maps variable name -> (lo, hi).  Variables of the term list that
    are missing from the box are not allowed.  With no variables at all the
    term list is a constant.
    """
    names = sorted({n for _, powers in terms for n in powers})
    if not names:
        return abs(eval_terms(terms, {}))
    axes = [np.linspace(box[n][0], box[n][1], points_per_axis) for n in names]
    mesh = np.meshgrid(*axes, indexing="ij", sparse=True)
    grids = dict(zip(names, mesh))
    return float(np.max(np.abs(eval_terms_grid(terms, grids))))


def corner_max_abs(terms, box: dict) -> float:
    """Exact supremum of |term list| over the box corners (for multilinear lists)."""
    names = sorted({n for _, powers in terms for n in powers})
    if not names:
        return abs(eval_terms(terms, {}))
    best = 0.0
    for corner in iter_product(*[box[n] for n in names]):
        best = max(best, abs(eval_terms(terms, dict(zip(names, corner)))))
    return best


def corner_fold_max_abs(terms, names, box: dict) -> float:
    """Largest |term list| over the box corners by a (2,)*k numpy fold.

    For multilinear lists over ``names``, which fixes the fold order: axis i
    is names[i], and a term sits at 1 on the axes of its variables.  Folding
    one axis at a time, a[0] + x*a[1] at x = lo and x = hi, leaves the value
    at every corner.  An overflow is no error here: the result is inf or nan.
    """
    axis = {n: i for i, n in enumerate(names)}
    a = np.zeros((2,) * len(names))
    for coeff, powers in terms:
        cell = [0] * len(names)
        for n in powers:
            cell[axis[n]] = 1
        a[tuple(cell)] = coeff
    with np.errstate(over="ignore", invalid="ignore"):
        for n in names:
            lo, hi = box[n]
            a = np.stack((a[0] + lo * a[1], a[0] + hi * a[1]), axis=-1)
        return float(np.abs(a).max())


def mul_terms(p, q):
    """Every monomial of the product p*q with its accumulated coefficient.

    Pairs are formed row by row: each term of p, in order, times each term of
    q, in order, and a monomial's coefficient is the running float sum of its
    pair products, starting from 0.0.  Monomials are listed in the order they
    were first formed.  Sums of exactly zero and non-finite sums are kept.
    """
    out: dict = {}
    for c1, pw1 in p:
        for c2, pw2 in q:
            powers = dict(pw1)
            for name, exp in pw2.items():
                powers[name] = powers.get(name, 0) + exp
            key = frozenset(powers.items())
            out[key] = out.get(key, 0.0) + c1 * c2
    return [(c, dict(key)) for key, c in out.items()]


def scale_terms(terms, c: float):
    """Every term of the list times c, in order; zero and non-finite products are kept."""
    return [(c * coeff, powers) for coeff, powers in terms]


def _nonzero(terms):
    if not all(math.isfinite(c) for c, _ in terms):
        raise OverflowError("a coefficient is not finite")
    return [(c, powers) for c, powers in terms if c != 0.0]


def power_terms(terms, k: int):
    """The k-th power of a term list, with zero sums dropped after each product.

    Square-and-multiply over the bits of k from the lowest set one up: the
    running result starts as the base squared that many times (no product by
    1), and each later set bit multiplies it, on the left, by the base squared
    once more per bit.  Raises OverflowError once any coefficient is not finite.
    """
    if k == 0:
        return [(1.0, {})]
    base = _nonzero(terms)
    while k % 2 == 0:
        base = _nonzero(mul_terms(base, base))
        k //= 2
    out = base
    k //= 2
    while k:
        base = _nonzero(mul_terms(base, base))
        if k % 2:
            out = _nonzero(mul_terms(out, base))
        k //= 2
    return out


# -- conversion reference -------------------------------------------------------------


def curve_eps(rho: float, delta: float, alpha: float) -> float:
    """The conversion objective at one order: rho*alpha + ln(1/delta)/(alpha-1)."""
    return rho * alpha + math.log(1.0 / delta) / (alpha - 1.0)


def golden_eps(rho: float, delta: float, tol: float = 1e-12) -> float:
    """Reference conversion: golden-section minimum of the objective over orders."""
    if rho == 0.0:
        return 0.0
    # the analytic minimiser is 1 + sqrt(ln(1/delta)/rho); bracket generously
    a_star = 1.0 + math.sqrt(math.log(1.0 / delta) / rho)
    lo, hi = 1.0 + 1e-12, max(10.0, 8.0 * a_star)
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1 = curve_eps(rho, delta, x1)
    f2 = curve_eps(rho, delta, x2)
    while hi - lo > tol * max(1.0, hi):
        if f1 < f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = curve_eps(rho, delta, x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = curve_eps(rho, delta, x2)
    return curve_eps(rho, delta, (lo + hi) / 2.0)


def closed_form_eps(rho: float, delta: float) -> float:
    """The analytic minimum of the conversion objective."""
    if rho == 0.0:
        return 0.0
    return rho + 2.0 * math.sqrt(rho * math.log(1.0 / delta))


def rho_cap(eps: float, delta: float) -> float:
    """Largest cumulative rho whose conversion stays within eps (bisection)."""
    lo, hi = 0.0, 1.0
    while golden_eps(hi, delta) <= eps:
        hi *= 2.0
    for _ in range(200):
        mid = (lo + hi) / 2.0
        if golden_eps(mid, delta) <= eps:
            lo = mid
        else:
            hi = mid
    return lo


def analytic_rho_for_eps(eps: float, delta: float) -> float:
    """Exact inverse of the closed-form conversion at fixed delta."""
    ln1d = math.log(1.0 / delta)
    return (math.sqrt(ln1d + eps) - math.sqrt(ln1d)) ** 2


def analytic_sigma(shift: float, eps: float, delta: float) -> float:
    """Smallest noise scale so one release of worst-case mean shift fits eps."""
    return shift / math.sqrt(2.0 * analytic_rho_for_eps(eps, delta))


# -- Renyi divergence by quadrature ---------------------------------------------------


def renyi_divergence_quad(mu_p: float, mu_q: float, sigma: float, alpha: float) -> float:
    """Order-alpha Renyi divergence between N(mu_p, sigma^2) and N(mu_q, sigma^2).

    Computed numerically in the log domain:
        D_alpha = 1/(alpha-1) * ln E_q[(p/q)^alpha]
                = 1/(alpha-1) * ln INT p(x)^alpha q(x)^(1-alpha) dx
    The integrand is exp(g(x)) with g = alpha*ln p + (1-alpha)*ln q; we locate
    max g, factor it out, and integrate the remainder so large alpha cannot
    overflow.
    """

    def log_pdf(x, mu):
        return -0.5 * ((x - mu) / sigma) ** 2 - math.log(sigma * math.sqrt(2 * math.pi))

    def g(x):
        return alpha * log_pdf(x, mu_p) + (1.0 - alpha) * log_pdf(x, mu_q)

    peak = optimize.minimize_scalar(
        lambda x: -g(x),
        bracket=(min(mu_p, mu_q) - sigma, max(mu_p, mu_q) + sigma),
    )
    x0, g_max = float(peak.x), float(-peak.fun)
    # g is an inverted parabola; its mass lives within a few sigma of the peak
    lo, hi = x0 - 60.0 * sigma, x0 + 60.0 * sigma
    integral, _err = integrate.quad(
        lambda x: math.exp(g(x) - g_max), lo, hi, limit=400, epsabs=1e-14, epsrel=1e-12
    )
    return (g_max + math.log(integral)) / (alpha - 1.0)


def renyi_divergence_exact(mu_p: float, mu_q: float, sigma: float, alpha: float) -> float:
    """Closed form for the same divergence: alpha * (mu_p-mu_q)^2 / (2 sigma^2)."""
    return alpha * (mu_p - mu_q) ** 2 / (2.0 * sigma * sigma)


# -- wire leak scan reference ----------------------------------------------------------


def leak_scan(obj) -> str | None:
    """The first leak in an outbound payload, in document order, or None.

    A dict leaks if it has a private key, or if it carries ``floor``,
    ``ceiling`` and ``value`` together (an entity input with its raw value).
    Every value is visited, scalars included, as the node's scan once did.
    """
    if isinstance(obj, dict):
        bad = {"clipped_input", "raw_value"}.intersection(obj.keys())
        if bad:
            return f"private key(s) {sorted(bad)} in outbound message"
        if "floor" in obj and "ceiling" in obj and "value" in obj:
            return "entity input serialized with its raw value"
        children = obj.values()
    elif isinstance(obj, (list, tuple)):
        children = obj
    else:
        return None
    for v in children:
        found = leak_scan(v)
        if found is not None:
            return found
    return None
