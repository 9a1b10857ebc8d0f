"""Second-order forward-mode jets.

A ``Jet2`` carries a value together with its exact first and second partial
derivatives with respect to two independent parameters (u, v).  Arithmetic
follows the Leibniz and chain rules to second order, so derivatives are exact
up to floating round-off -- no symbolic algebra, no truncation error.

Slots may hold plain floats or numpy arrays of a common broadcastable shape,
which is how whole parameter grids are differentiated in one pass.
"""

from __future__ import annotations

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
    """An operation left the real domain (log of non-positive, 0^-n, ...)."""


def _all_zero(x) -> bool:
    return np.all(np.asarray(x) == 0.0)


class Jet2:
    """Value with exact first and second partials in (u, v)."""

    # sin_cos caches (sin f, cos f), which sin and cos of this jet share
    __slots__ = ("f", "fu", "fv", "fuu", "fuv", "fvv", "sin_cos")

    def __init__(self, f, fu=0.0, fv=0.0, fuu=0.0, fuv=0.0, fvv=0.0):
        self.f = f
        self.fu = fu
        self.fv = fv
        self.fuu = fuu
        self.fuv = fuv
        self.fvv = fvv
        self.sin_cos = None

    @classmethod
    def constant(cls, value) -> "Jet2":
        return cls(np.asarray(value, dtype=float) * 1.0 if np.ndim(value) else float(value))

    @classmethod
    def var_u(cls, value) -> "Jet2":
        return cls(np.asarray(value, dtype=float) * 1.0, fu=1.0)

    @classmethod
    def var_v(cls, value) -> "Jet2":
        return cls(np.asarray(value, dtype=float) * 1.0, fv=1.0)

    def slots(self):
        return (self.f, self.fu, self.fv, self.fuu, self.fuv, self.fvv)

    def is_constant(self) -> bool:
        """True when every derivative slot is identically zero."""
        return all(_all_zero(s) for s in (self.fu, self.fv, self.fuu, self.fuv, self.fvv))

    def __repr__(self):
        return (f"Jet2(f={self.f!r}, fu={self.fu!r}, fv={self.fv!r}, "
                f"fuu={self.fuu!r}, fuv={self.fuv!r}, fvv={self.fvv!r})")

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet2):
            return Jet2(self.f + other.f, self.fu + other.fu, self.fv + other.fv,
                        self.fuu + other.fuu, self.fuv + other.fuv, self.fvv + other.fvv)
        return Jet2(self.f + other, self.fu, self.fv, self.fuu, self.fuv, self.fvv)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet2):
            return Jet2(self.f - other.f, self.fu - other.fu, self.fv - other.fv,
                        self.fuu - other.fuu, self.fuv - other.fuv, self.fvv - other.fvv)
        return Jet2(self.f - other, self.fu, self.fv, self.fuu, self.fuv, self.fvv)

    def __rsub__(self, other):
        return Jet2(other - self.f, -self.fu, -self.fv, -self.fuu, -self.fuv, -self.fvv)

    def __neg__(self):
        return Jet2(-self.f, -self.fu, -self.fv, -self.fuu, -self.fuv, -self.fvv)

    def __mul__(self, other):
        if isinstance(other, Jet2):
            return Jet2(
                self.f * other.f,
                self.fu * other.f + self.f * other.fu,
                self.fv * other.f + self.f * other.fv,
                self.fuu * other.f + 2.0 * self.fu * other.fu + self.f * other.fuu,
                self.fuv * other.f + self.fu * other.fv + self.fv * other.fu + self.f * other.fuv,
                self.fvv * other.f + 2.0 * self.fv * other.fv + self.f * other.fvv,
            )
        return Jet2(self.f * other, self.fu * other, self.fv * other,
                    self.fuu * other, self.fuv * other, self.fvv * other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, Jet2):
            return self * (1.0 / other)
        g = other
        if np.any(np.asarray(g.f) == 0.0):
            raise JetDomainError("division by zero")
        # quotient rule solved for h = f/g:  f = h*g  =>  derivatives of h
        h = self.f / g.f
        hu = (self.fu - h * g.fu) / g.f
        hv = (self.fv - h * g.fv) / g.f
        huu = (self.fuu - 2.0 * hu * g.fu - h * g.fuu) / g.f
        huv = (self.fuv - hu * g.fv - hv * g.fu - h * g.fuv) / g.f
        hvv = (self.fvv - 2.0 * hv * g.fv - h * g.fvv) / g.f
        return Jet2(h, hu, hv, huu, huv, hvv)

    def __rtruediv__(self, other):
        return Jet2(other) / self

    def __pow__(self, other, modulo=None):
        return power(self, other)

    def __abs__(self):
        return absolute(self)


def _chain(x: Jet2, f0, f1, f2) -> Jet2:
    """Compose a scalar function (value f0, derivatives f1, f2 at x.f) with a jet."""
    return Jet2(
        f0,
        f1 * x.fu,
        f1 * x.fv,
        f2 * x.fu * x.fu + f1 * x.fuu,
        f2 * x.fu * x.fv + f1 * x.fuv,
        f2 * x.fv * x.fv + f1 * x.fvv,
    )


def _sin_cos(x: Jet2):
    """(sin, cos) of the jet's value, computed once per jet."""
    if x.sin_cos is None:
        x.sin_cos = (np.sin(x.f), np.cos(x.f))
    return x.sin_cos


def sin(x):
    if not isinstance(x, Jet2):
        return np.sin(x)
    s, c = _sin_cos(x)
    return _chain(x, s, c, -s)


def cos(x):
    if not isinstance(x, Jet2):
        return np.cos(x)
    s, c = _sin_cos(x)
    return _chain(x, c, -s, -c)


def tan(x):
    if not isinstance(x, Jet2):
        return np.tan(x)
    t = np.tan(x.f)
    d = 1.0 + t * t
    return _chain(x, t, d, 2.0 * t * d)


def sinh(x):
    if not isinstance(x, Jet2):
        return np.sinh(x)
    s, c = np.sinh(x.f), np.cosh(x.f)
    return _chain(x, s, c, s)


def cosh(x):
    if not isinstance(x, Jet2):
        return np.cosh(x)
    s, c = np.sinh(x.f), np.cosh(x.f)
    return _chain(x, c, s, c)


def exp(x):
    if not isinstance(x, Jet2):
        return np.exp(x)
    e = np.exp(x.f)
    return _chain(x, e, e, e)


def log(x):
    if not isinstance(x, Jet2):
        return np.log(x)
    if np.any(np.asarray(x.f) <= 0.0):
        raise JetDomainError("log of non-positive value")
    return _chain(x, np.log(x.f), 1.0 / x.f, -1.0 / (x.f * x.f))


def sqrt(x):
    if not isinstance(x, Jet2):
        return np.sqrt(x)
    if np.any(np.asarray(x.f) <= 0.0):
        # at 0 the derivative is unbounded, below 0 the value leaves the reals
        raise JetDomainError("sqrt of non-positive value")
    s = np.sqrt(x.f)
    return _chain(x, s, 0.5 / s, -0.25 / (s * x.f))


def absolute(x):
    if not isinstance(x, Jet2):
        return np.abs(x)
    if np.any(np.asarray(x.f) == 0.0):
        raise JetDomainError("abs is not differentiable at zero")
    sg = np.sign(x.f)
    return _chain(x, np.abs(x.f), sg, 0.0)


def power(base, expo):
    """base ** expo on jets, real-valued semantics.

    Integer exponents are valid for any base; non-integer or genuinely variable
    exponents require a strictly positive base.
    """
    if not isinstance(base, Jet2):
        base = Jet2.constant(base)
    if isinstance(expo, Jet2):
        if expo.is_constant():
            expo = expo.f
        else:
            if np.any(np.asarray(base.f) <= 0.0):
                raise JetDomainError("variable exponent requires a positive base")
            return exp(expo * log(base))
    c = np.asarray(expo, dtype=float)
    if np.all(np.isfinite(c)) and np.all(c == np.floor(c)):
        return _int_power(base, c)
    if np.any(np.asarray(base.f) <= 0.0):
        raise JetDomainError("non-integer exponent requires a positive base")
    with np.errstate(all="ignore"):
        f0 = np.power(base.f, c)
        f1 = c * np.power(base.f, c - 1.0)
        f2 = c * (c - 1.0) * np.power(base.f, c - 2.0)
    return _chain(base, f0, f1, f2)


def _int_power(x: Jet2, c) -> Jet2:
    if np.ndim(c) == 0:
        n = float(c)
        if n == 0.0:
            return Jet2(np.ones_like(np.asarray(x.f, dtype=float)) if np.ndim(x.f) else 1.0)
        if n == 1.0:
            return Jet2(*x.slots())
    with np.errstate(all="ignore"):
        f0 = np.power(x.f, c)
        f1 = c * np.power(x.f, c - 1.0)
        f2 = c * (c - 1.0) * np.power(x.f, c - 2.0)
    return _chain(x, f0, f1, f2)


@dataclass(frozen=True)
class Jet2Vec3:
    """A point of 3-space with exact first and second (u, v) partials.

    The accessors return the component jets' slots as (x, y, z) planes, not copies.
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
