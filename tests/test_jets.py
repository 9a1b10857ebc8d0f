"""Jet arithmetic: exact derivatives checked against finite differences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from catacaustics import Jet2, parse_surface
from catacaustics import surfacelang
from catacaustics.jets import JetDomainError
from catacaustics.surfacelang import (BinOp, Call, Const, EvalDomainError, Neg,
                                      SurfaceAST, eval_surface)
from conftest import random_scalar_expr

H_FD = 1e-4
RTOL_FIRST = 1e-5
RTOL_SECOND = 1e-3


def _eval_scalar(tree, u, v, params=None):
    ast = SurfaceAST(tree, Const(0.0), Const(0.0), params or {})
    return eval_surface(ast, u, v).x


def _fd_slots(tree, u, v, h=H_FD):
    def f(uu, vv):
        return float(_eval_scalar(tree, uu, vv).f)

    fu = (f(u + h, v) - f(u - h, v)) / (2 * h)
    fv = (f(u, v + h) - f(u, v - h)) / (2 * h)
    fuu = (f(u + h, v) - 2 * f(u, v) + f(u - h, v)) / h**2
    fvv = (f(u, v + h) - 2 * f(u, v) + f(u, v - h)) / h**2
    fuv = (f(u + h, v + h) - f(u + h, v - h) - f(u - h, v + h) + f(u - h, v - h)) / (4 * h**2)
    return fu, fv, fuu, fuv, fvv


def test_random_trees_match_finite_differences():
    rng = np.random.default_rng(7)
    checked = 0
    while checked < 100:
        tree = random_scalar_expr(rng)
        u, v = rng.uniform(-0.9, 0.9, size=2)
        try:
            jet = _eval_scalar(tree, u, v)
        except EvalDomainError:
            continue
        if any(abs(float(np.asarray(s))) > 1e3 for s in jet.slots()):
            continue  # keep finite-difference truncation error meaningful
        fu, fv, fuu, fuv, fvv = _fd_slots(tree, u, v)
        for got, ref, rtol in [(jet.fu, fu, RTOL_FIRST), (jet.fv, fv, RTOL_FIRST),
                               (jet.fuu, fuu, RTOL_SECOND), (jet.fuv, fuv, RTOL_SECOND),
                               (jet.fvv, fvv, RTOL_SECOND)]:
            got = float(np.asarray(got))
            assert abs(got - ref) <= rtol * max(1.0, abs(got), abs(ref)), tree
        checked += 1


finite = st.floats(min_value=-10, max_value=10, allow_nan=False)


@given(st.tuples(*[finite] * 6), st.tuples(*[finite] * 6))
@settings(max_examples=200)
def test_product_rule_is_exact(fs, gs):
    f = Jet2(*fs)
    g = Jet2(*gs)
    prod = f * g
    want_uu = f.fuu * g.f + 2.0 * f.fu * g.fu + f.f * g.fuu
    want_uv = f.fuv * g.f + f.fu * g.fv + f.fv * g.fu + f.f * g.fuv
    want_vv = f.fvv * g.f + 2.0 * f.fv * g.fv + f.f * g.fvv
    for got, want in [(prod.fuu, want_uu), (prod.fuv, want_uv), (prod.fvv, want_vv)]:
        assert got == pytest.approx(want, rel=1e-15, abs=1e-300) or \
            abs(got - want) <= 8 * np.spacing(max(abs(got), abs(want), 1e-300))


def test_hand_derived_product_jet():
    # f = sin(u*v) at (0.7, 0.3)
    u, v = 0.7, 0.3
    jet = _eval_scalar(parse_surface("[sin(u*v), 0, 0]").x, u, v)
    s, c = np.sin(u * v), np.cos(u * v)
    assert jet.f == pytest.approx(s, rel=1e-15)
    assert jet.fu == pytest.approx(v * c, rel=1e-14)
    assert jet.fv == pytest.approx(u * c, rel=1e-14)
    assert jet.fuu == pytest.approx(-v * v * s, rel=1e-13)
    assert jet.fvv == pytest.approx(-u * u * s, rel=1e-13)
    assert jet.fuv == pytest.approx(c - u * v * s, rel=1e-13)


def test_quotient_and_reciprocal():
    u, v = 0.4, -0.2
    jet = _eval_scalar(parse_surface("[u/(2 + v), 0, 0]").x, u, v)
    d = 2 + v
    assert jet.f == pytest.approx(u / d, rel=1e-15)
    assert jet.fu == pytest.approx(1 / d, rel=1e-14)
    assert jet.fv == pytest.approx(-u / d**2, rel=1e-14)
    assert jet.fuv == pytest.approx(-1 / d**2, rel=1e-13)
    assert jet.fvv == pytest.approx(2 * u / d**3, rel=1e-13)
    assert jet.fuu == 0.0


def test_integer_power_on_negative_base():
    # (u - 5)^3 at u = 1: base -4
    jet = _eval_scalar(parse_surface("[(u - 5)^3, 0, 0]").x, 1.0, 0.0)
    assert jet.f == -64.0
    assert jet.fu == 48.0
    assert jet.fuu == -24.0
    assert jet.fv == jet.fvv == jet.fuv == 0.0


def test_power_identities_at_zero_base():
    jet = _eval_scalar(parse_surface("[u^2, 0, 0]").x, 0.0, 0.0)
    assert (jet.f, jet.fu, jet.fuu) == (0.0, 0.0, 2.0)
    jet = _eval_scalar(parse_surface("[u^1, 0, 0]").x, 0.0, 0.0)
    assert (jet.f, jet.fu, jet.fuu) == (0.0, 1.0, 0.0)


@pytest.mark.parametrize("text,u,v", [
    ("[(u - 5)^0.5, 0, 0]", 1.0, 0.0),   # non-integer power of negative base
    ("[log(u), 0, 0]", -1.0, 0.0),       # log of non-positive
    ("[sqrt(u), 0, 0]", 0.0, 0.0),       # sqrt at zero: unbounded derivative
    ("[1/u, 0, 0]", 0.0, 0.0),           # division by zero
    ("[abs(u), 0, 0]", 0.0, 0.0),        # abs at zero: not differentiable
    ("[u^-1, 0, 0]", 0.0, 0.0),          # 0^-1 blows up
])
def test_domain_errors(text, u, v):
    ast = parse_surface(text)
    with pytest.raises(EvalDomainError):
        eval_surface(ast, u, v)


def test_domain_error_carries_offending_node():
    ast = parse_surface("[u + log(v), 0, 0]")
    with pytest.raises(EvalDomainError) as err:
        eval_surface(ast, 0.5, -1.0)
    assert "log(v)" in str(err.value)


def test_variable_exponent_on_positive_base():
    u, v = 0.8, 1.3
    jet = _eval_scalar(parse_surface("[(1 + u^2)^v, 0, 0]").x, u, v)
    f = (1 + u**2) ** v
    assert jet.f == pytest.approx(f, rel=1e-14)
    assert jet.fv == pytest.approx(f * np.log(1 + u**2), rel=1e-13)
    assert jet.fu == pytest.approx(f * v * 2 * u / (1 + u**2), rel=1e-13)


def test_vectorized_eval_matches_scalar():
    ast = parse_surface("[sin(u)*cos(v), exp(0.3*u - v^2), u*v]")
    us = np.linspace(-1.0, 1.0, 7)
    vs = np.linspace(-0.8, 0.8, 5)
    U, V = np.meshgrid(us, vs, indexing="ij")
    grid_jet = eval_surface(ast, U, V)
    for i in (0, 3, 6):
        for j in (0, 2, 4):
            pt = eval_surface(ast, us[i], vs[j])
            for comp_g, comp_p in zip(grid_jet.components(), pt.components()):
                for slot_g, slot_p in zip(comp_g.slots(), comp_p.slots()):
                    got = np.broadcast_to(np.asarray(slot_g, dtype=float), U.shape)[i, j]
                    assert got == pytest.approx(float(np.asarray(slot_p)), rel=1e-15, abs=1e-15)


# -- one-pass evaluation: a batch with bad points is its points one at a time --

# the last two have exponents that are 0 (so any base is fine) at some points only
EDGES = ("sqrt(u)", "log(v)", "1/u", "abs(u)", "u^2.5", "sqrt(u)^0",
         "v^((abs(u)/u + 1)*0.25)", "v^(u^3)")


def random_edge_expr(rng: np.random.Generator, depth: int = 2):
    """A random_scalar_expr tree with operations at the edge of the real domain mixed in."""

    def make(d):
        if d <= 0 or rng.random() < 0.3:
            if rng.random() < 0.5:
                return parse_surface(f"[{rng.choice(EDGES)}, 0, 0]").x
            return random_scalar_expr(rng, depth=1)
        kind = rng.integers(0, 4)
        if kind == 0:
            return BinOp(str(rng.choice(["+", "-", "*", "/"])), make(d - 1), make(d - 1))
        if kind == 1:
            return Call(str(rng.choice(["sin", "exp", "sqrt", "log", "abs"])), make(d - 1))
        if kind == 2:
            return BinOp("^", make(d - 1), Const(float(rng.choice([0.0, 2.0, 2.5, -1.0]))))
        return Neg(make(d - 1))

    return make(depth)


def _failure_sites(ast):
    """Where eval_surface can fail, in its order: (node id, non-finite check?)."""
    sites = []

    def walk(node):
        for name in ("operand", "arg", "left", "right"):
            if hasattr(node, name):
                walk(getattr(node, name))
        sites.append((id(node), False))

    for tree in ast.components():
        walk(tree)
        sites.append((id(tree), True))
    return sites


@given(seed=st.integers(0, 2**32 - 1), ku=st.integers(1, 3), kv=st.integers(1, 3))
@settings(max_examples=200, deadline=None)
def test_batch_evaluation_is_the_per_point_evaluation(seed, ku, kv):
    rng = np.random.default_rng(seed)
    ast = SurfaceAST(*(random_edge_expr(rng) for _ in range(3)))
    # odd counts put a sample at 0, the edge of sqrt, log, 1/u and abs
    us, vs = np.linspace(-1.0, 1.0, 2 * ku + 1), np.linspace(-1.0, 1.0, 2 * kv + 1)
    shape = (us.size, vs.size)
    sites = _failure_sites(ast)

    def site(err):
        return sites.index((id(err.node), "non-finite value" in str(err)))

    points, errors = {}, {}
    for i, j in np.ndindex(shape):
        try:
            points[i, j] = eval_surface(ast, us[i], vs[j])
        except EvalDomainError as err:
            errors[i, j] = err
    try:
        jet, outside = eval_surface(ast, us[:, None], vs[None, :]), np.zeros(shape, bool)
        assert not errors
    except EvalDomainError as err:
        first = min(errors.values(), key=site)
        assert err.node is first.node and str(err) == str(first)
        jet, outside = err.jet, err.outside
    assert np.array_equal(outside, [[(i, j) in errors for j in range(shape[1])]
                                    for i in range(shape[0])])
    for (i, j), point in points.items():
        for comp_b, comp_p in zip(jet.components(), point.components()):
            for slot_b, slot_p in zip(comp_b.slots(), comp_p.slots()):
                got = np.broadcast_to(np.asarray(slot_b, dtype=float), shape)[i, j]
                assert got.view(np.uint64) == np.float64(slot_p).view(np.uint64)


@pytest.mark.parametrize("text, message", [
    ("[sqrt(u)^0, v, 0]", "sqrt of non-positive value in 'sqrt(u)'"),
    ("[u^2.5, v, 0]", "non-integer exponent requires a positive base in 'u^2.5'"),
    ("[abs(u), v, 0]", "abs is not differentiable at zero in 'abs(u)'"),
])
def test_outside_holds_failures_with_finite_values(text, message):
    # at u = 0 each of these evaluates to finite values, yet leaves the chart
    us, vs = np.array([0.0, 0.5, 1.0]), np.array([0.2, 0.4])
    with pytest.raises(EvalDomainError) as err:
        eval_surface(parse_surface(text), us[:, None], vs[None, :])
    assert str(err.value) == message
    assert np.array_equal(err.value.outside, [[True, True], [False, False], [False, False]])
    assert all(np.all(np.isfinite(s)) for c in err.value.jet.components() for s in c.slots())


@pytest.mark.parametrize("text, us, message, outside", [
    # a constant exponent, 0 at u = -1 and 0.5 at u = 1
    ("[u, v, v^((abs(u)/u + 1)*0.25)]", [-1.0, 1.0],
     "non-integer exponent requires a positive base", [[False, False], [True, False]]),
    # an exponent whose derivatives all vanish at u = 0 only, where it is 0
    ("[u, v, v^(u^3)]", [-1.0, 0.0, 1.0],
     "variable exponent requires a positive base", [[True, False], [False, False], [True, False]]),
])
def test_power_decides_its_branch_per_point(text, us, message, outside):
    ast = parse_surface(text)
    us, vs = np.array(us), np.array([-1.0, 1.0])
    with pytest.raises(EvalDomainError) as err:
        eval_surface(ast, us[:, None], vs[None, :])
    assert str(err.value).startswith(message)
    assert np.array_equal(err.value.outside, outside)
    for i, j in zip(*np.nonzero(~np.asarray(outside))):
        assert err.value.jet.z.f[i, j] == eval_surface(ast, us[i], vs[j]).z.f


# -- first-order evaluation: the order-2 value and first partials, bit for bit --

# (text, us, vs) of the two cases where a naive first order parts from order 2
ORDER_REPRODUCERS = {
    # at u = 0 the exponent has fu = fv = 0 but fuu = 2: power's constant test
    # must see every slot, or order 1 takes the integer branch there
    "power-branch": ("[u, v, (v-1)^(u^2)]", np.linspace(-1.0, 1.0, 5), np.linspace(0.5, 1.5, 5)),
    # fuu underflows to NaN on the row u = 0, a slot order 1 never computes
    "trough": ("[u, v, sqrt(u^2 + 1e-300)]", np.linspace(-1.0, 1.0, 21),
               np.linspace(-1.0, 1.0, 21)),
}


def _evaluate(ast, us, vs, order):
    """(jet, outside) of eval_surface at the given order on the grid us x vs."""
    try:
        jet = eval_surface(ast, us[:, None], vs[None, :], order)
    except EvalDomainError as err:
        return err.jet, err.outside
    return jet, np.zeros((us.size, vs.size), bool)


def check_first_order_is_order_two(ast, us, vs):
    shape = (us.size, vs.size)
    jet1, out1 = _evaluate(ast, us, vs, 1)
    jet2, out2 = _evaluate(ast, us, vs, 2)
    assert not np.any(out1 & ~out2)
    # where only a second-order slot is non-finite, order 2 alone leaves the chart
    second_only = np.zeros(shape, bool)
    for comp in jet2.components():
        finite = [np.broadcast_to(np.isfinite(s), shape) for s in comp.slots()]
        second_only |= np.logical_and.reduce(finite[:3]) & ~np.logical_and.reduce(finite[3:])
    assert np.array_equal(out1 & ~second_only, out2 & ~second_only)
    for comp1, comp2 in zip(jet1.components(), jet2.components()):
        for s1, s2 in zip(comp1.slots()[:3], comp2.slots()[:3]):
            b1 = np.broadcast_to(np.asarray(s1, dtype=float), shape)[~out2]
            b2 = np.broadcast_to(np.asarray(s2, dtype=float), shape)[~out2]
            assert np.array_equal(b1.view(np.uint64), b2.view(np.uint64))


@given(seed=st.integers(0, 2**32 - 1), ku=st.integers(1, 3), kv=st.integers(1, 3))
@settings(max_examples=200, deadline=None)
def test_first_order_is_the_order_two_value_and_partials(seed, ku, kv):
    rng = np.random.default_rng(seed)
    ast = SurfaceAST(*(random_edge_expr(rng) for _ in range(3)))
    # odd counts put a sample at 0, the edge of sqrt, log, 1/u and abs
    check_first_order_is_order_two(ast, np.linspace(-1.0, 1.0, 2 * ku + 1),
                                   np.linspace(-1.0, 1.0, 2 * kv + 1))


@pytest.mark.parametrize("text, us, vs", ORDER_REPRODUCERS.values(), ids=ORDER_REPRODUCERS.keys())
def test_first_order_reproducers(text, us, vs):
    ast = parse_surface(text)
    check_first_order_is_order_two(ast, us, vs)
    jet, _ = _evaluate(ast, us, vs, 1)
    assert jet.z.slots()[3:] == () and jet.z.fuu is None


def test_first_order_without_the_exponent_rule_fails_the_property(monkeypatch):
    # planted: the exponent of ^ evaluated at the order of the result
    real = surfacelang._eval_node
    monkeypatch.setattr(surfacelang, "_eval_node",
                        lambda node, uv, full, params, failed: real(node, uv, uv, params, failed))
    with pytest.raises(AssertionError):
        test_first_order_reproducers(*ORDER_REPRODUCERS["power-branch"])
