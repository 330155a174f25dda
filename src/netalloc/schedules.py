"""Step-size schedules for the dual update.

A schedule is a positive nonincreasing sequence ``alpha(k)`` consumed at round
``k`` starting from 0. A schedule is ``normalized`` when ``alpha(0) == 1``,
which the consensus-error and rate bounds require verbatim. Non-normalized
schedules still simulate fine; bound evaluation refuses them.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import _field


class StepSchedule:
    """Base class; concrete schedules implement ``alpha(k)``."""

    name = "abstract"

    def alpha(self, k):
        raise NotImplementedError

    @property
    def normalized(self):
        return self.alpha(0) == 1.0

    def alphas(self, count):
        """First ``count`` values as an array, validated finite, positive, nonincreasing."""
        if count < 0:
            raise ValueError(f"count must be nonnegative, got {count}")
        vals = self._values(count)
        # min and max are NaN when any value is, so NaN fails both comparisons
        if count and not (vals.min() > 0.0 and vals.max() < math.inf):
            k = int(np.argmax(~((vals > 0.0) & (vals < math.inf))))
            raise ValueError(f"step size must be finite and positive, got alpha({k}) = {vals[k]}")
        if count > 1 and (np.diff(vals) > 0.0).any():
            k = int(np.argmax(np.diff(vals) > 0.0))
            raise ValueError(
                f"step size must be nonincreasing, got alpha({k}) = {vals[k]} "
                f"< alpha({k + 1}) = {vals[k + 1]}"
            )
        return vals

    def _values(self, count):
        """``alpha(0) .. alpha(count - 1)`` as a float array, one call per ``k``.

        :class:`RecipSqrt` and :class:`Recip` compute theirs in closed form.
        :class:`PowerLaw` keeps this loop, since numpy's ``k**p`` may differ
        from the C library's in the last bit.
        """
        return np.array([self.alpha(k) for k in range(count)], dtype=float)

    def __repr__(self):
        return f"{type(self).__name__}()"


class _ClosedForm(StepSchedule):
    """``alpha(0) = 1``, ``alpha(k) = _step(k, math)`` for ``k >= 1``.

    ``_step(k, xp)`` is the schedule's one formula, written with the
    functions of ``xp``: :meth:`alpha` evaluates it on a round number with
    :mod:`math`, ``alphas(count)`` on all of them at once with numpy. Its
    operations (division, ``sqrt``) round correctly in both, so the two
    give the same bits.
    """

    def alpha(self, k):
        return self._step(k or 1, math)  # round 0 counts as round 1, so alpha(0) = 1

    def _values(self, count):
        k = np.arange(count, dtype=float)
        k[:1] = 1.0
        return self._step(k, np)


class RecipSqrt(_ClosedForm):
    """``alpha(0) = 1``, ``alpha(k) = 1/sqrt(k)``.

    The schedule of the rate bound.
    """

    name = "recip-sqrt"

    @staticmethod
    def _step(k, xp):
        return 1.0 / xp.sqrt(k)


class Recip(_ClosedForm):
    """``alpha(0) = 1``, ``alpha(k) = 1/k``."""

    name = "recip"

    @staticmethod
    def _step(k, xp):
        return 1.0 / k


class PowerLaw(StepSchedule):
    """``alpha(0) = c``, ``alpha(k) = c / k**p`` with finite ``c > 0``, ``p in (0.5, 1]``.

    The exponent range gives ``sum alpha = inf`` and ``sum alpha**2 < inf``;
    ``c != 1`` makes the schedule non-normalized for bound checks.
    """

    def __init__(self, c, p):
        c = float(c)
        p = float(p)
        if not 0.0 < c < math.inf:
            raise ValueError(f"power-law coefficient must be finite and positive, got {c}")
        if not (0.5 < p <= 1.0):
            raise ValueError(f"power-law exponent must lie in (0.5, 1], got {p}")
        self.c = c
        self.p = p
        self.name = f"powerlaw:{c:g}:{p:g}"

    def alpha(self, k):
        return self.c if k == 0 else self.c / k**self.p

    def __repr__(self):
        return f"PowerLaw(c={self.c!r}, p={self.p!r})"


def parse_schedule(spec):
    """Parse a schedule spec string: ``recip-sqrt``, ``recip``, or ``powerlaw:C:P``.

    The names are exact: no other case, spacing, ``_`` for ``-`` or alias.
    ``C`` and ``P`` are read by the number rule, :func:`~netalloc.errors._field`.
    """
    if spec == "recip-sqrt":
        return RecipSqrt()
    if spec == "recip":
        return Recip()
    parts = spec.split(":")
    if parts[0] == "powerlaw":
        if len(parts) != 3:
            raise ValueError(f"power-law spec must be 'powerlaw:C:P', got {spec!r}")
        try:
            return PowerLaw(_field(parts[1], float), _field(parts[2], float))
        except ValueError as exc:
            raise ValueError(f"bad power-law spec {spec!r}: {exc}") from None
    raise ValueError(f"unknown schedule spec {spec!r}")
