"""Second-order forward-mode jets.

A ``Jet2`` carries a value together with its exact first and second partial
derivatives with respect to two independent parameters (u, v).  Arithmetic
follows the Leibniz and chain rules to second order, so derivatives are exact
up to floating round-off -- no symbolic algebra, no truncation error.

A first-order jet has no second-order slots (None, not zero); an operation
drops them when an operand lacks them, and its value and first partials are
bit for bit those of second order.  Constants have zero second-order slots.

Every operation takes jets only: a constant c enters as the jet Jet2(c).
Slots may hold floats or numpy arrays of a common broadcastable shape,
which is how whole parameter grids are differentiated in one pass.

The domain-checked operations (division, log, sqrt, abs, non-integer and
variable powers) compute every point, garbage at the bad ones, and then
raise a JetDomainError that carries the result and the mask of bad points.
Run them under np.errstate(all="ignore"), as eval_surface does, to silence
the floating-point warnings of the bad points.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Jet2",
    "Jet2Vec3",
    "JetDomainError",
    "sin", "cos", "tan", "sinh", "cosh", "exp", "log", "sqrt", "absolute",
    "power",
]


class JetDomainError(ArithmeticError):
    """An operation left the real domain; jet is its result, garbage where bad."""

    def __init__(self, message: str, jet=None, bad=None):
        super().__init__(message)
        self.jet = jet
        self.bad = bad


def _checked(jet, bad, message):
    """jet, or a JetDomainError carrying it if any point is bad."""
    if np.any(bad):
        raise JetDomainError(message, jet, bad)
    return jet


class Jet2:
    """Value with exact first and second partials in (u, v)."""

    __slots__ = ("f", "fu", "fv", "fuu", "fuv", "fvv")

    def __init__(self, f, fu=0.0, fv=0.0, fuu=0.0, fuv=0.0, fvv=0.0):
        self.f = f
        self.fu = fu
        self.fv = fv
        self.fuu = fuu
        self.fuv = fuv
        self.fvv = fvv

    @classmethod
    def var_u(cls, value, order=2) -> "Jet2":
        return cls.of((np.asarray(value, dtype=float) * 1.0, 1.0, 0.0, 0.0, 0.0, 0.0)[:3 * order])

    @classmethod
    def var_v(cls, value, order=2) -> "Jet2":
        return cls.of((np.asarray(value, dtype=float) * 1.0, 0.0, 1.0, 0.0, 0.0, 0.0)[:3 * order])

    @classmethod
    def of(cls, slots) -> "Jet2":
        """The jet of (f, fu, fv), first order, or of all six slots."""
        return cls(*slots) if len(slots) == 6 else cls(*slots, None, None, None)

    def slots(self):
        if self.fuu is None:
            return (self.f, self.fu, self.fv)
        return (self.f, self.fu, self.fv, self.fuu, self.fuv, self.fvv)

    def __repr__(self):
        return (f"Jet2(f={self.f!r}, fu={self.fu!r}, fv={self.fv!r}, "
                f"fuu={self.fuu!r}, fuv={self.fuv!r}, fvv={self.fvv!r})")

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        return Jet2.of([x + y for x, y in zip(self.slots(), other.slots())])

    def __sub__(self, other):
        return Jet2.of([x - y for x, y in zip(self.slots(), other.slots())])

    def __neg__(self):
        return Jet2.of([-x for x in self.slots()])

    def __mul__(self, g):
        slots = (self.f * g.f,
                 self.fu * g.f + self.f * g.fu,
                 self.fv * g.f + self.f * g.fv)
        if self.fuu is not None and g.fuu is not None:
            slots += (self.fuu * g.f + 2.0 * self.fu * g.fu + self.f * g.fuu,
                      self.fuv * g.f + self.fu * g.fv + self.fv * g.fu + self.f * g.fuv,
                      self.fvv * g.f + 2.0 * self.fv * g.fv + self.f * g.fvv)
        return Jet2.of(slots)

    def __truediv__(self, g):
        gf = np.asarray(g.f, dtype=float)  # x/0 is inf, not a ZeroDivisionError
        # quotient rule solved for h = f/g:  f = h*g  =>  derivatives of h
        h = self.f / gf
        hu = (self.fu - h * g.fu) / gf
        hv = (self.fv - h * g.fv) / gf
        slots = (h, hu, hv)
        if self.fuu is not None and g.fuu is not None:
            slots += ((self.fuu - 2.0 * hu * g.fu - h * g.fuu) / gf,
                      (self.fuv - hu * g.fv - hv * g.fu - h * g.fuv) / gf,
                      (self.fvv - 2.0 * hv * g.fv - h * g.fvv) / gf)
        return _checked(Jet2.of(slots), gf == 0.0, "division by zero")


def _chain(x: Jet2, f0, f1, f2) -> Jet2:
    """Compose a scalar function (value f0, derivatives f1, f2 at x.f) with a jet."""
    slots = (f0, f1 * x.fu, f1 * x.fv)
    if x.fuu is not None:
        slots += (f2 * x.fu * x.fu + f1 * x.fuu,
                  f2 * x.fu * x.fv + f1 * x.fuv,
                  f2 * x.fv * x.fv + f1 * x.fvv)
    return Jet2.of(slots)


def sin(x: Jet2) -> Jet2:
    s, c = np.sin(x.f), np.cos(x.f)
    return _chain(x, s, c, -s)


def cos(x: Jet2) -> Jet2:
    s, c = np.sin(x.f), np.cos(x.f)
    return _chain(x, c, -s, -c)


def tan(x: Jet2) -> Jet2:
    t = np.tan(x.f)
    d = 1.0 + t * t
    return _chain(x, t, d, 2.0 * t * d)


def sinh(x: Jet2) -> Jet2:
    s, c = np.sinh(x.f), np.cosh(x.f)
    return _chain(x, s, c, s)


def cosh(x: Jet2) -> Jet2:
    s, c = np.sinh(x.f), np.cosh(x.f)
    return _chain(x, c, s, c)


def exp(x: Jet2) -> Jet2:
    e = np.exp(x.f)
    return _chain(x, e, e, e)


def _log(x: Jet2) -> Jet2:
    f = np.asarray(x.f, dtype=float)  # 1/0 is inf, not a ZeroDivisionError
    return _chain(x, np.log(f), 1.0 / f, -1.0 / (f * f))


def log(x: Jet2) -> Jet2:
    return _checked(_log(x), x.f <= 0.0, "log of non-positive value")


def sqrt(x: Jet2) -> Jet2:
    s = np.sqrt(x.f)
    jet = _chain(x, s, 0.5 / s, -0.25 / (s * x.f))
    # at 0 the derivative is unbounded, below 0 the value leaves the reals
    return _checked(jet, x.f <= 0.0, "sqrt of non-positive value")


def absolute(x: Jet2) -> Jet2:
    jet = _chain(x, np.abs(x.f), np.sign(x.f), 0.0)
    return _checked(jet, x.f == 0.0, "abs is not differentiable at zero")


def _select(mask, a: Jet2, b: Jet2) -> Jet2:
    """The jet that is a where mask holds and b elsewhere."""
    return Jet2.of([np.where(mask, x, y) for x, y in zip(a.slots(), b.slots())])


def power(base: Jet2, expo: Jet2) -> Jet2:
    """base ** expo on jets, real-valued semantics, decided at each point.

    Where the exponent is constant (every derivative zero) and an integer,
    any base is valid; elsewhere the base must be strictly positive.  Where a
    constant exponent is 0 the result is exactly 1, and where it is 1 exactly
    the base, so each point gets what evaluating it alone gives.
    """
    c = expo.f
    const = functools.reduce(np.logical_and, [np.asarray(s) == 0.0 for s in expo.slots()[1:]])
    with np.errstate(all="ignore"):
        jet = None
        if np.any(const):
            jet = _chain(base, np.power(base.f, c), c * np.power(base.f, c - 1.0),
                         c * (c - 1.0) * np.power(base.f, c - 2.0))
            if np.any(const & ((c == 0.0) | (c == 1.0))):
                jet = _select(const & (c == 0.0), Jet2(1.0),
                              _select(const & (c == 1.0), base, jet))
        if not np.all(const):
            variable = exp(expo * _log(base))
            jet = variable if jet is None else _select(const, jet, variable)
        integer = const & np.isfinite(c) & (c == np.floor(c))
    bad = (base.f <= 0.0) & ~integer
    if not np.any(bad):
        return jet
    # the message of the first bad point, as evaluating the points one by one finds it
    first_const = np.broadcast_to(const, np.shape(bad)).flat[np.argmax(bad)]
    raise JetDomainError("non-integer exponent requires a positive base" if first_const
                         else "variable exponent requires a positive base", jet, bad)


@dataclass(frozen=True)
class Jet2Vec3:
    """A point of 3-space with exact first and second (u, v) partials.

    The accessors return the component jets' slots as (x, y, z) planes, not
    copies.  A component of first order has None for its second partials.
    """

    x: Jet2
    y: Jet2
    z: Jet2

    def value(self) -> tuple:
        return (self.x.f, self.y.f, self.z.f)

    def d_u(self) -> tuple:
        return (self.x.fu, self.y.fu, self.z.fu)

    def d_v(self) -> tuple:
        return (self.x.fv, self.y.fv, self.z.fv)

    def d_uu(self) -> tuple:
        return (self.x.fuu, self.y.fuu, self.z.fuu)

    def d_uv(self) -> tuple:
        return (self.x.fuv, self.y.fuv, self.z.fuv)

    def d_vv(self) -> tuple:
        return (self.x.fvv, self.y.fvv, self.z.fvv)

    def components(self):
        return (self.x, self.y, self.z)
