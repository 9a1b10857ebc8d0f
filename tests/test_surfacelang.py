"""Parser, printer and evaluator of the surface language."""

import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from catacaustics import eval_surface, parse_surface, surfacelang, to_text
from catacaustics.surfacelang import (ArityError, BinOp, Call, Const, Neg,
                                      Param, SurfaceAST, SurfaceLangError,
                                      SurfaceSyntaxError,
                                      UnknownIdentifierError, Var, format_expr,
                                      parse_surface_definition)

SPHERE = "[cos(u)*cos(v), cos(u)*sin(v), sin(u)]"


def test_sphere_chart_parses_and_evaluates():
    ast = parse_surface(SPHERE)
    jet = eval_surface(ast, 0.0, 0.0)
    assert np.allclose(jet.value(), [1, 0, 0], atol=1e-15)
    assert np.allclose(jet.d_u(), [0, 0, 1], atol=1e-15)
    assert np.allclose(jet.d_v(), [0, 1, 0], atol=1e-15)


def test_plane_has_zero_second_derivatives():
    ast = parse_surface("[u, v, 0]")
    jet = eval_surface(ast, 1.7, -2.3)
    for second in (jet.d_uu(), jet.d_uv(), jet.d_vv()):
        assert np.allclose(second, 0.0)


def test_hyperbolic_paraboloid_jet_at_1_1():
    ast = parse_surface("[u, v, u^2/2 - v^2/2]")
    z = eval_surface(ast, 1.0, 1.0).z
    assert (z.f, z.fu, z.fv) == (0.0, 1.0, -1.0)
    assert (z.fuu, z.fvv, z.fuv) == (1.0, -1.0, 0.0)


class TestPrecedence:
    def _num(self, text):
        ast = parse_surface(f"[{text}, 0, 0]")
        return float(np.asarray(eval_surface(ast, 3.0, 2.0).x.f))

    def test_power_binds_tighter_than_unary_minus(self):
        assert self._num("-u^2") == -9.0

    def test_power_is_right_associative(self):
        assert self._num("2^3^2") == 512.0

    def test_mul_over_add(self):
        assert self._num("2*3 + 4*5") == 26.0

    def test_division_is_left_associative(self):
        assert self._num("6/2/3") == 1.0

    def test_negative_exponent(self):
        assert self._num("2^-1") == 0.5

    def test_unary_minus_in_products(self):
        assert self._num("2*-u") == -6.0


class TestErrors:
    def test_syntax_error_with_position(self):
        with pytest.raises(SurfaceSyntaxError) as err:
            parse_surface("[u + * v, 0, 0]")
        assert err.value.line == 1
        assert err.value.col == 6

    def test_syntax_error_line_tracking(self):
        with pytest.raises(SurfaceSyntaxError) as err:
            parse_surface("[u,\n v,\n )]")
        assert err.value.line == 3

    def test_unclosed_bracket(self):
        with pytest.raises(SurfaceSyntaxError):
            parse_surface("[u, v, 0")

    def test_unknown_identifier(self):
        with pytest.raises(UnknownIdentifierError):
            parse_surface("[w, v, 0]")

    def test_unknown_function(self):
        with pytest.raises(UnknownIdentifierError):
            parse_surface("[foo(u), v, 0]")

    def test_function_without_argument_is_arity_error(self):
        for name in ("sin", "cos", "tan", "sinh", "cosh", "exp", "log", "sqrt", "abs", "neg"):
            with pytest.raises(ArityError):
                parse_surface(f"[{name}, v, 0]")

    def test_calling_a_parameter_is_arity_error(self):
        with pytest.raises(ArityError):
            parse_surface("[R(u), v, 0]", {"R": 2.0})

    def test_trailing_garbage(self):
        with pytest.raises(SurfaceSyntaxError):
            parse_surface("[u, v, 0] extra")

    def test_error_kinds_are_distinct(self):
        assert not issubclass(UnknownIdentifierError, SurfaceSyntaxError)
        assert not issubclass(ArityError, SurfaceSyntaxError)
        assert not issubclass(ArityError, UnknownIdentifierError)


def test_parameters_fixed_at_parse_time():
    ast = parse_surface("[R*u, R*v, c]", {"R": 2.0, "c": 3.0})
    assert np.allclose(eval_surface(ast, 1.0, 1.5).value(), [2.0, 3.0, 3.0])
    with pytest.raises(UnknownIdentifierError):
        parse_surface("[R*u, v, 0]")  # R not declared


def test_domain_declaration():
    text = """
    # a saddle on a square
    [u, v, u^2/2 - v^2/2]
    u in [-2, 2]; v in [-2.5, 2.5]
    """
    ast, domain = parse_surface_definition(text)
    assert domain == (-2.0, 2.0, -2.5, 2.5)
    assert ast == parse_surface("[u, v, u^2/2 - v^2/2]")


def test_domain_must_be_nonempty():
    with pytest.raises(SurfaceSyntaxError):
        parse_surface_definition("[u, v, 0]\nu in [1, 1]; v in [0, 1]")


def test_print_parse_round_trip_on_texts():
    texts = [
        SPHERE,
        "[u, v, u^2/2 - v^2/2]",
        "[-u^2, 2^3^2, sin(cos(u) + v)]",
        "[u/v/2, u - (v - 1), (u + v)*(u - v)]",
        "[2*-u, u^-2, -(-v)]",
        "[1e-3*u, 2.5E+1 + v, .5*u]",
    ]
    for text in texts:
        first = parse_surface(text)
        again = parse_surface(to_text(first))
        assert first == again, text


_leaf = st.one_of(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False).map(Const),
    st.sampled_from([Var("u"), Var("v"), Param("w1"), Param("w2")]),
)
_expr = st.recursive(
    _leaf,
    lambda inner: st.one_of(
        st.builds(Neg, inner),
        st.builds(Call, st.sampled_from(["sin", "cos", "tan", "sinh", "cosh",
                                         "exp", "log", "sqrt", "abs"]), inner),
        st.builds(BinOp, st.sampled_from(list("+-*/^")), inner, inner),
    ),
    max_leaves=20,
)


@given(_expr, _expr, _expr)
@settings(max_examples=150)
def test_structural_round_trip_property(x, y, z):
    params = {"w1": 1.0, "w2": 2.0}
    ast = SurfaceAST(x, y, z, params)
    assert parse_surface(to_text(ast), params) == ast


def test_neg_call_normalizes_to_unary_minus():
    assert parse_surface("[neg(u), v, 0]") == parse_surface("[-u, v, 0]")


def test_format_expr_minimal_parens():
    node = parse_surface("[u + v*u, 0, 0]").x
    assert format_expr(node) == "u + v*u"


_REF_NUMBER_RE = re.compile(r"(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_REF_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_REF_OPS = "[](),+-*/^;"


def tokenize_reference(text: str) -> list:
    """The scanner as a character loop: one branch per token kind."""
    toks = []
    line, col = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            col += 1
            i += 1
            continue
        m = _REF_NUMBER_RE.match(text, i)
        if m and (ch.isdigit() or ch == "."):
            toks.append(surfacelang._Tok("NUMBER", m.group(), line, col))
            col += m.end() - i
            i = m.end()
            continue
        m = _REF_IDENT_RE.match(text, i)
        if m:
            toks.append(surfacelang._Tok("IDENT", m.group(), line, col))
            col += m.end() - i
            i = m.end()
            continue
        if ch in _REF_OPS:
            toks.append(surfacelang._Tok("OP", ch, line, col))
            col += 1
            i += 1
            continue
        raise SurfaceSyntaxError(f"unexpected character {ch!r}", line, col)
    toks.append(surfacelang._Tok("EOF", "", line, col))
    return toks


def _outcome(run, text):
    """run(text), or the class and message of the SurfaceLangError it raises."""
    try:
        return run(text)
    except SurfaceLangError as e:
        return type(e), str(e)


_PIECES = ["0", "7", "12", "3.", ".5", "1.e-3", "2E+1", ".", "e", "E", "u", "v", "x_1", "in",
           "sin", *"[](),+-*/^;", " ", "\t", "\n", "\r", "\x0b", "\x0c", "\x85",
           "\u2028", "\xa0", "\u00b2", "\u0663", "\u00e9",
           "[u, v, u^2/2 - v^2/2]", "u in [-2, 2]; v in [-2.5, 2.5]"]
_texts = st.lists(st.sampled_from(_PIECES), max_size=30).map("".join)


@seed(0)
@given(_texts)
@settings(max_examples=500, deadline=None)
def test_scanner_is_the_character_loop(text):
    assert _outcome(surfacelang._tokenize, text) == _outcome(tokenize_reference, text)


# a surface file's tokens with whitespace or a comment between each two
_FILE_TOKENS = ["[", "u", ",", "v", ",", "u", "^", "2", "/", "2", "-", "v", "^", "2.", "/",
                ".5e1", "]", "u", "in", "[", "-", "2", ",", "2", "]", ";", "v", "in", "[",
                "-", "2.5", ",", "2.5", "]"]
_SEPARATORS = ["", " ", "\t", "\n", "\r\n", "\r", "\x0c", "\x85", "\u2028", "\xa0",
               "# note\n", " #\u2028", "#"]
_files = st.lists(st.sampled_from(_SEPARATORS), min_size=len(_FILE_TOKENS) + 1,
                  max_size=len(_FILE_TOKENS) + 1).map(
    lambda seps: "".join(a + b for a, b in zip(seps, [*_FILE_TOKENS, ""])))


@seed(0)
@given(st.one_of(_files, st.lists(st.sampled_from([*_PIECES, "#", "# note"]),
                                  max_size=30).map("".join)))
@settings(max_examples=300, deadline=None)
def test_surface_file_parses_as_with_the_character_loop(text):
    got = _outcome(parse_surface_definition, text)
    with mock.patch.object(surfacelang, "_tokenize", tokenize_reference):
        assert got == _outcome(parse_surface_definition, text)
