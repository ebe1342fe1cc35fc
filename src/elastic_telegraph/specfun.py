"""Special-function series used by the closed-form distribution formulas.

The public functions are direct power series with term-ratio updates.
Partial sums accumulate in extended precision (``numpy.longdouble``) and
results come back as ordinary floats.  The public entry points take a
:class:`SeriesControl` fixing the truncation budget and stopping rule,
which one array kernel, ``_lane_series``, applies to whole batches of series
(one lane per series); the public functions are its one-lane case.
The internal kernel for exponentially scaled Bessel values of every order,
``_bessel_i_scaled_sweep``, is Miller's backward recurrence run on the
ratios I_m / I_{m-1}, which lie in (0, 1); it runs to machine precision
instead, with no rescaling, in extended or plain double precision alike.
The distribution layer leans on it inside quadrature loops where per-point
budgets would be noise.

Series forms follow the standard hypergeometric conventions (DLMF ch. 15
and 16); a Pochhammer factor hitting zero in a denominator is reported as
a :class:`~elastic_telegraph.errors.DomainError` naming the offending
term index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceError, DomainError

_LD = np.longdouble
# unit roundoff of the extended accumulator; internal kernels stop here
_EPS_LD = _LD(1e-19)


@dataclass(frozen=True)
class SeriesControl:
    """Truncation policy for the public series evaluators.

    A series stops once ``consecutive_small`` successive terms each have
    magnitude at most ``rel_tol`` times the current partial sum, or at a
    term that is exactly zero.  Needing more than ``max_terms`` terms after
    the first raises :class:`ConvergenceError` carrying the last term
    magnitude.
    """

    rel_tol: float = 1e-12
    max_terms: int = 500
    consecutive_small: int = 3

    def __post_init__(self):
        if not (0.0 < self.rel_tol < 1.0):
            raise DomainError(f"rel_tol must lie in (0, 1), got {self.rel_tol}")
        if int(self.max_terms) < 1 or self.max_terms != int(self.max_terms):
            raise DomainError(f"max_terms must be a positive integer, got {self.max_terms}")
        if int(self.consecutive_small) < 1 or self.consecutive_small != int(self.consecutive_small):
            raise DomainError(
                f"consecutive_small must be a positive integer, got {self.consecutive_small}"
            )


DEFAULT_CONTROL = SeriesControl()


def _lane_series(terms: Callable[[int], np.ndarray], ctrl: SeriesControl, what: str,
                 floor: float = 0.0, n: int = 32) -> np.ndarray:
    """Sum a batch of series, one per lane, under the stopping rule.

    ``terms(n)`` returns the first n terms of every lane as an (n, lanes)
    longdouble array.  A lane stops at an exactly zero term (a terminated
    series) or at the last of ``consecutive_small`` successive terms each at
    most ``rel_tol * max(|partial sum|, floor)``; its sum runs to that term.
    The term count starts at ``n`` and doubles until every lane has stopped; a
    lane still running after term ``max_terms``, or a sum that is not finite,
    raises ConvergenceError.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        while True:
            n = min(n, int(ctrl.max_terms) + 1)
            block = terms(n)
            sums = np.cumsum(block, axis=0)
            bound = np.maximum(np.abs(sums), _LD(floor))
            bound *= _LD(ctrl.rel_tol)
            small = np.abs(block) <= bound
            idx = np.arange(n, dtype=np.int32)[:, None]
            run = idx - np.maximum.accumulate(np.where(small, np.int32(-1), idx), axis=0)
            hit = (run >= ctrl.consecutive_small) | (block == 0.0)
            done = hit.any(axis=0)
            if done.all():
                out = sums[hit.argmax(axis=0), np.arange(block.shape[1])]
                if not np.all(np.isfinite(out)):
                    raise ConvergenceError(what, math.inf, n)
                return out
            if n > ctrl.max_terms:
                raise ConvergenceError(what, abs(float(block[-1, np.argmin(done)])), int(ctrl.max_terms))
            n *= 2


def _ratio_series(first, ratio: Callable[[np.ndarray], np.ndarray], ctrl: SeriesControl,
                  what: str) -> np.ndarray:
    """Per-lane sums of ``t0 + t0*r(0) + t0*r(0)*r(1) + ...`` by :func:`_lane_series`.

    ``first`` holds each lane's t0; ``ratio(k)`` maps a column of term
    indices k to ``term[k+1] / term[k]`` for every lane.  A ratio of exactly
    zero terminates its lane.
    """
    first = np.atleast_1d(np.asarray(first, dtype=_LD))

    def terms(n: int) -> np.ndarray:
        out = np.empty((n, first.shape[0]), dtype=_LD)
        out[0] = first
        out[1:] = ratio(np.arange(n - 1, dtype=_LD)[:, None])
        return np.multiply.accumulate(out, axis=0, out=out)

    return _lane_series(terms, ctrl, what)


def _neg_int_index(v: float) -> int | None:
    """Smallest k >= 0 with v + k == 0, or None if v is not a nonpositive integer."""
    v = float(v)
    if v <= 0.0 and v.is_integer():
        return int(-v)
    return None


def bessel_i(n: int, z: float, ctrl: SeriesControl = DEFAULT_CONTROL) -> float:
    """Modified Bessel function I_n(z) of integer order n >= 0, z >= 0.

    Direct ascending series; suited to moderate arguments.  Large
    arguments exhaust ``ctrl.max_terms`` by design, use the scaled
    internal kernels for those.
    """
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 0:
        raise DomainError(f"bessel_i: order must be an integer >= 0, got {n!r}")
    z = float(z)
    if not math.isfinite(z) or z < 0.0:
        raise DomainError(f"bessel_i: argument must be finite and >= 0, got {z}")
    if z == 0.0:
        return 1.0 if n == 0 else 0.0
    if n <= 170:
        t0 = _LD(z / 2.0) ** n / _LD(math.factorial(n))
    else:
        t0 = np.exp(_LD(n * math.log(z / 2.0) - math.lgamma(n + 1.0)))
    q = _LD(z) * _LD(z) / 4.0
    return float(_ratio_series(t0, lambda k: q / ((k + 1) * (k + n + 1)), ctrl, "bessel_i")[0])


def hyper_0f1(b: float, z: float, ctrl: SeriesControl = DEFAULT_CONTROL) -> float:
    """Confluent limit function 0F1(; b; z), entire in z."""
    kb = _neg_int_index(b)
    if kb is not None:
        raise DomainError(
            f"hyper_0f1: Pochhammer factor (b)_k vanishes at term index k={kb + 1} for b={b}"
        )
    zl = _LD(z)
    return float(_ratio_series(1.0, lambda k: zl / ((b + k) * (k + 1)), ctrl, "hyper_0f1")[0])


def hyper_1f2(
    a: float, b: float, c: float, z: float, ctrl: SeriesControl = DEFAULT_CONTROL
) -> float:
    """Generalized hypergeometric 1F2(a; b, c; z), entire in z.

    Terminates exactly when ``a`` is a nonpositive integer.  A nonpositive
    integer ``b`` or ``c`` reached before termination is a domain error.
    """
    ka = _neg_int_index(a)
    for name, v in (("b", b), ("c", c)):
        kp = _neg_int_index(v)
        if kp is not None and (ka is None or kp <= ka):
            raise DomainError(
                f"hyper_1f2: Pochhammer factor ({name})_k vanishes at term index "
                f"k={kp + 1} for {name}={v}"
            )
    zl = _LD(z)
    return float(_ratio_series(
        1.0, lambda k: zl * (a + k) / ((b + k) * (c + k) * (k + 1)), ctrl, "hyper_1f2"
    )[0])


def hyper_2f1(
    a: float, b: float, c: float, z: float, ctrl: SeriesControl = DEFAULT_CONTROL
) -> float:
    """Gauss hypergeometric 2F1(a, b; c; z) for |z| < 1, or any z if terminating."""
    ka = _neg_int_index(a)
    kb = _neg_int_index(b)
    kt = min((k for k in (ka, kb) if k is not None), default=None)
    if kt is None and not abs(z) < 1.0:
        raise DomainError(
            f"hyper_2f1: series requires |z| < 1 unless a or b is a nonpositive "
            f"integer, got z={z}"
        )
    kc = _neg_int_index(c)
    if kc is not None and (kt is None or kc <= kt):
        raise DomainError(
            f"hyper_2f1: Pochhammer factor (c)_k vanishes at term index k={kc + 1} for c={c}"
        )
    zl = _LD(z)
    return float(_ratio_series(
        1.0, lambda k: zl * (a + k) * (b + k) / ((c + k) * (k + 1)), ctrl, "hyper_2f1"
    )[0])


# ---------------------------------------------------------------------------
# Internal array kernel: exponentially scaled Bessel values e^{-z} I_m(z)
# of every order up to m_max over longdouble arrays, to machine precision,
# with no overflow for any argument the distribution layer can produce.
# ---------------------------------------------------------------------------

# below this the scaled value of any positive order is < 1e-30; treat as 0
_Z_TINY = 1e-30
# a sweep block holds at least _SWEEP_BLOCK orders, and about _SWEEP_VALUES
# values for narrow batches: few calls per order, and a reused buffer that
# stays small next to the (m_max+1 x lanes) result
_SWEEP_BLOCK = 16
_SWEEP_VALUES = 4096
# lanes x orders of one sweep; the largest in any passing benchmark job or test is 1.8e6
_SWEEP_BUDGET = 2 * 10**7


def _bessel_i_scaled_sweep(m_max: int, z) -> np.ndarray:
    """All of e^{-z} I_m(z) for m = 0..m_max, shape (m_max+1, len(z)).

    Miller's backward recurrence in ratio form (Gautschi, SIAM Review 9,
    1967): r_m = I_m / I_{m-1} = 1 / (2m/z + r_{m+1}), started at
    r_{mtop+1} = 0 above the requested window.  Every iterate lies in
    (0, 1), so no lane can overflow whatever the precision of ``_LD``, and
    each order costs two in-place array operations.  Orders run in blocks;
    each block is folded into the tail sum s = sum_{m>=1} r_1 ... r_m, and
    e^{-z}(I_0 + 2 sum I_m) = 1 gives e^{-z} I_0 = 1 / (1 + 2s).  Rows
    1..m_max are the running products of the ratios times that value.
    Past its lane x order budget a sweep raises before it allocates.
    """
    z = np.atleast_1d(np.asarray(z, dtype=_LD))
    if not np.all(np.isfinite(z)):
        raise DomainError("Bessel sweep: arguments must be finite")
    # start high enough that both the start-value contamination and the
    # truncated upper tail of the normalization sum sit below 1e-18
    # relative: orders above sqrt(90 z) carry weight < e^{-45} of the total
    top = max(math.sqrt(m_max * m_max + 90.0 * float(np.max(z, initial=0.0))) + 12, m_max + 10)
    if top * z.shape[0] > _SWEEP_BUDGET:
        raise ConvergenceError(f"Bessel sweep needing {top:.3g} orders x {z.shape[0]} lanes, budget",
                               math.inf, _SWEEP_BUDGET)
    mtop = int(top)
    out = np.zeros((m_max + 1, z.shape[0]), dtype=_LD)
    pos = z > _Z_TINY
    out[0, ~pos] = 1.0
    if not np.any(pos):
        return out
    zp = z[pos]
    npos = zp.shape[0]
    win = out if npos == z.shape[0] else np.empty((m_max + 1, npos), dtype=_LD)
    two_over_z = 2.0 / zp
    block = min(mtop, max(_SWEEP_BLOCK, _SWEEP_VALUES // npos))
    # rows 0..block-1 hold the orders lo, lo+1, ...; row `block` carries
    # the ratio just above them (zero above mtop)
    buf = np.zeros((block + 1, npos), dtype=_LD)
    rows = list(buf)
    orders = np.arange(block, dtype=_LD)[:, None]
    s = np.zeros(npos, dtype=_LD)
    n = (mtop - 1) % block + 1  # the top block may be short
    for lo in range(mtop - n + 1, 0, -block):
        blk = buf[:n]
        np.multiply(orders[:n] + lo, two_over_z, out=blk)
        for i in range(n - 1, -1, -1):
            row = rows[i]
            row += rows[i + 1]
            np.reciprocal(row, out=row)
        k = min(n, m_max + 1 - lo)
        if k > 0:
            win[lo : lo + k] = buf[:k]
        np.copyto(rows[block], rows[0])
        np.cumprod(blk, axis=0, out=blk)
        s *= blk[-1]
        s += blk.sum(axis=0)
        n = block
    win[0] = 1.0 / (1.0 + 2.0 * s)
    np.cumprod(win[1:], axis=0, out=win[1:])
    win[1:] *= win[0]
    if win is not out:
        out[:, pos] = win
    return out
