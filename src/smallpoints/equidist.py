"""Equidistribution diagnostics for Galois orbits on the unit circle.

Points of small height have conjugates that cluster near the unit circle
with angles spreading toward the uniform measure. This module turns the
conjugate set of an algebraic number into an empirical angle measure with
certified accuracy, and computes the standard test statistics:

  * star discrepancy    D*_N = max_i max(i/N - u_(i), u_(i) - (i-1)/N)
  * Weyl sums           |N^-1 sum_j exp(2 pi i k u_j)|
  * radial deviation    max_j |log |z_j||

Koksma's inequality bounds each Weyl sum by 4 k D*_N, which the tests
exercise. Angles come from certified root enclosures: real conjugates get
exact angle 0 or 1/2. A complex-conjugate pair is measured once, from the
disk with im > 0, and its conjugate enters as the mirror (1 - theta) with
the same modulus, so the measure is symmetric under z -> conj(z) exactly.
Enclosures are refined only while some disk touches 0: the stated errors,
float rounding included, bound every stored value, and no statistic needs
a certified order (sorting does not raise the largest angle error).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple

from .algebraic import (
    AlgebraicNumber, _abs_interval, _angle_unit, _conjugate_rows, _ContextError, _root_table,
    weil_height,
)

__all__ = [
    "EquidistError",
    "EmpiricalAngleMeasure",
    "orbit_measure",
    "star_discrepancy",
    "weyl_sum",
    "radial_deviation",
    "bilu_report",
    "BiluReport",
]


class EquidistError(_ContextError):
    """Invalid equidistribution computation."""


@dataclass(frozen=True)
class EmpiricalAngleMeasure:
    """Conjugate angles (sorted, in [0,1)) with matching moduli.

    angle_err and log_radius_err bound the distance of every stored angle
    and log-modulus from the true value."""

    angles: Tuple[float, ...]
    radii: Tuple[float, ...]
    log_radii: Tuple[float, ...]
    angle_err: float
    log_radius_err: float

    def __post_init__(self):
        if not self.angles:
            raise EquidistError("empty measure")
        if not (len(self.angles) == len(self.radii) == len(self.log_radii)):
            raise EquidistError("mismatched angle/radius lists")

    def __len__(self):
        return len(self.angles)

    def rows(self) -> List[Tuple[int, float, float, float]]:
        """(index, angle, radius, log_radius) per conjugate."""
        return [
            (i, a, r, lr)
            for i, (a, r, lr) in enumerate(
                zip(self.angles, self.radii, self.log_radii)
            )
        ]


def _measure_at(minpoly, eps: float):
    """One certification pass: sorted per-root (angle, angle_err, log r, err).

    Each complex-conjugate pair that _conjugate_rows yields once is
    measured from its im > 0 disk, angle theta in (0, 1/2). The conjugate
    lies in the mirror image of that disk, which has the same modulus bounds
    and mirrored angle bounds, so it enters as (1 - theta) with the same
    errors and log-modulus. A non-real angle error adds 2^-53 for the
    rounding of theta and of 1 - theta to float; a log-modulus error adds
    2^-50 (1 + |log|), which covers the float logarithms and their mean."""
    entries = []
    for _, re, im, rad, real, paired in _conjugate_rows(_root_table(minpoly, eps)):
        lo, hi = _abs_interval(re, im, rad)
        if not lo > 0:
            return None  # enclosure touches 0; angle undefined there
        theta = _angle_unit(re, im, real)
        a_err = 0.0 if real else float(rad / lo) / (2 * math.pi) + 2.0**-53
        llo, lhi = math.log(lo), math.log(hi)
        l_err = (lhi - llo) / 2 + 2.0**-50 * (1 + max(abs(llo), abs(lhi)))
        entries.append((theta, a_err, (llo + lhi) / 2, l_err))
        if paired:
            entries.append((1 - theta,) + entries[-1][1:])
    entries.sort(key=lambda t: (t[0], t[2]))
    return entries


def orbit_measure(alpha: AlgebraicNumber, eps: float = 1e-9) -> EmpiricalAngleMeasure:
    """The empirical measure of the full conjugate set of alpha.

    Starts from enclosures of radius eps and refines, up to three times,
    only while some enclosure touches 0; equal angles sort by log-modulus.
    Zero has no angle and is rejected."""
    if alpha.is_rational and alpha.as_rational() == 0:
        raise EquidistError("zero has no angle")
    if not eps > 0:
        raise EquidistError("eps must be positive")
    for tries in range(4):
        cur = eps / 64.0**tries
        entries = _measure_at(alpha.minpoly, cur)
        if entries is not None:
            break
    else:
        raise EquidistError(
            "could not separate the conjugates from zero", minpoly=alpha.minpoly, eps=cur
        )
    return EmpiricalAngleMeasure(
        angles=tuple(t for t, _, _, _ in entries),
        radii=tuple(math.exp(lr) for _, _, lr, _ in entries),
        log_radii=tuple(lr for _, _, lr, _ in entries),
        angle_err=max(e for _, e, _, _ in entries),
        log_radius_err=max(e for _, _, _, e in entries),
    )


def star_discrepancy(measure: EmpiricalAngleMeasure) -> float:
    """D*_N against the uniform measure on [0,1); always in [1/(2N), 1]."""
    n = len(measure)
    d = 0.0
    for i, u in enumerate(measure.angles, start=1):
        d = max(d, i / n - u, u - (i - 1) / n)
    return d


def weyl_sum(measure: EmpiricalAngleMeasure, k: int) -> float:
    """|N^-1 sum_j exp(2 pi i k u_j)| for a nonzero frequency k."""
    if int(k) != k or k == 0:
        raise EquidistError("frequency k must be a nonzero integer")
    s = sum(cmath.exp(2j * math.pi * k * u) for u in measure.angles)
    return abs(s) / len(measure)


def radial_deviation(measure: EmpiricalAngleMeasure) -> float:
    """max |log r| over the conjugate moduli; 0 means all on the circle."""
    return max(abs(lr) for lr in measure.log_radii)


@dataclass(frozen=True)
class BiluReport:
    """Per-element orbit statistics for a sequence, with trend verdicts.

    The verdicts compare the tail tenth against the head tenth, so they are
    heuristics about the supplied prefix, not proofs about the limit."""

    rows: List[dict]
    discrepancy_to_zero: bool
    radial_to_zero: bool
    heights_to_zero: bool


def _to_zero(values: Sequence[float], k: int) -> bool:
    head = max(values[:k])
    tail = max(values[-k:])
    peak = max(values)
    if peak == 0.0:
        return True
    return tail <= 0.25 * head and tail <= 0.1 * peak


def bilu_report(
    family: Sequence[AlgebraicNumber],
    eps: float = 1e-9,
    height_tol: float = 1e-9,
) -> BiluReport:
    """Orbit statistics along a family of algebraic numbers.

    For a sequence of small points the discrepancies, radial deviations and
    heights should all collapse together; disagreement between the verdicts
    flags a family that is not actually small."""
    if not family:
        raise EquidistError("empty family")
    rows = []
    for alpha in family:
        mu = orbit_measure(alpha, eps=eps)
        row = {
            "degree": alpha.degree,
            "height": weil_height(alpha, tol=height_tol),
            "discrepancy": star_discrepancy(mu),
        }
        for k in range(1, 6):
            row[f"weyl{k}"] = weyl_sum(mu, k)
        row["radial"] = radial_deviation(mu)
        rows.append(row)
    k = max(1, len(rows) // 10)
    return BiluReport(
        rows=rows,
        discrepancy_to_zero=_to_zero([r["discrepancy"] for r in rows], k),
        radial_to_zero=_to_zero([r["radial"] for r in rows], k),
        heights_to_zero=_to_zero([r["height"] for r in rows], k),
    )
