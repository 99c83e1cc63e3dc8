"""Expression parsing, evaluation, and symbolic differentiation.

Derivatives are cross-checked against central finite differences at seeded
random points, so every rule in the differentiator has an independent
numeric witness.
"""

import math
import re

import numpy as np
import pytest

from ctrlstab import (EvalError, ExprError, ParseError, differentiate,
                      parse, parse_instance)
from ctrlstab.expr import (NON_SMOOTH, VARIABLES, Add, Call, Const, Div, Mul,
                           Neg, Pow, Sub, Var)

from conftest import CONFIG_DIR

# (text, python lambda, variables used)
CORPUS = [
    ("2", lambda e: 2.0, ()),
    ("-3.5e-2", lambda e: -3.5e-2, ()),
    ("x1", lambda e: e["x1"], ("x1",)),
    ("x1 + 2*x2", lambda e: e["x1"] + 2 * e["x2"], ("x1", "x2")),
    ("x1*x2 - s/2", lambda e: e["x1"] * e["x2"] - e["s"] / 2, ("x1", "x2", "s")),
    ("y^2", lambda e: e["y"] ** 2, ("y",)),
    ("y^3 - 2*y", lambda e: e["y"] ** 3 - 2 * e["y"], ("y",)),
    ("(y - 1)^2", lambda e: (e["y"] - 1) ** 2, ("y",)),
    ("-y^2", lambda e: -e["y"] ** 2, ("y",)),
    ("2^2^2", lambda e: 16.0, ()),
    ("sin(s)", lambda e: np.sin(e["s"]), ("s",)),
    ("cos(2*s) + sin(s)^2", lambda e: np.cos(2 * e["s"]) + np.sin(e["s"]) ** 2, ("s",)),
    ("exp(-y)", lambda e: np.exp(-e["y"]), ("y",)),
    ("exp(y)*cos(x1)", lambda e: np.exp(e["y"]) * np.cos(e["x1"]), ("x1", "y")),
    ("ln(2 + y^2)", lambda e: np.log(2 + e["y"] ** 2), ("y",)),
    ("sqrt(1 + lam^2)", lambda e: np.sqrt(1 + e["lam"] ** 2), ("lam",)),
    ("1/(1 + y^2)", lambda e: 1.0 / (1 + e["y"] ** 2), ("y",)),
    ("lam*y - 0.5*lam^2", lambda e: e["lam"] * e["y"] - 0.5 * e["lam"] ** 2, ("y", "lam")),
    ("y^0.5 + 1", lambda e: e["y"] ** 0.5 + 1, ("y",)),
    ("(x1^2 + x2^2)^1.5", lambda e: (e["x1"] ** 2 + e["x2"] ** 2) ** 1.5, ("x1", "x2")),
]


def _env(variables, rng, n=7):
    # positive samples keep sqrt/ln/fractional powers inside their domains
    return {v: 0.25 + rng.random(n) for v in variables}


@pytest.mark.parametrize("text,fn,variables", CORPUS)
def test_eval_matches_python(text, fn, variables):
    rng = np.random.default_rng(hash(text) % 2**32)
    env = _env(variables, rng)
    got = parse(text).eval(env)
    want = fn(env)
    assert np.allclose(got, want, rtol=1e-14, atol=1e-14)


@pytest.mark.parametrize("text,fn,variables", CORPUS)
def test_roundtrip_through_str(text, fn, variables):
    e = parse(text)
    again = parse(str(e))
    rng = np.random.default_rng(hash(text) % 2**32)
    env = _env(variables, rng)
    assert np.allclose(e.eval(env), again.eval(env),
                       rtol=1e-15, atol=1e-15)
    assert str(again) == str(e)


@pytest.mark.parametrize("text,fn,variables", CORPUS)
@pytest.mark.parametrize("var", ["y", "lam"])
def test_diff_matches_central_fd(text, fn, variables, var):
    e = parse(text)
    d = differentiate(e, var)
    rng = np.random.default_rng(1234)
    env = {v: 0.3 + rng.random(100) for v in variables}
    if var not in variables:
        assert np.allclose(np.asarray(d.eval(env), float), 0.0)
        return
    h = 1e-6
    up = dict(env, **{var: env[var] + h})
    dn = dict(env, **{var: env[var] - h})
    fd = (e.eval(up) - e.eval(dn)) / (2 * h)
    sym = np.broadcast_to(np.asarray(d.eval(env), float), fd.shape)
    assert np.max(np.abs(sym - fd)) <= 1e-6 * (1.0 + np.max(np.abs(sym)))


def test_second_derivative():
    e = parse("y^3 - 2*y^2 + exp(2*y)")
    d2 = differentiate(e, "y", 2)
    y = np.linspace(-0.5, 0.5, 11)
    want = 6 * y - 4 + 4 * np.exp(2 * y)
    assert np.allclose(d2.eval({"y": y}), want, rtol=1e-13, atol=1e-13)


def test_diff_is_linear():
    a = parse("sin(2*y) + y^2")
    b = parse("exp(-y) * y")
    combo = parse(f"({a}) + 3*({b})")
    da, db, dc = (differentiate(e, "y") for e in (a, b, combo))
    y = np.linspace(-1, 1, 17)
    lhs = dc.eval({"y": y})
    rhs = da.eval({"y": y}) + 3 * db.eval({"y": y})
    assert np.allclose(lhs, rhs, rtol=1e-14, atol=1e-14)


def test_derivative_tree_reparses():
    e = parse("exp(-y^2) * sin(s) / (1 + y^2)")
    d = differentiate(e, "y")
    again = parse(str(d))
    y = np.linspace(-1, 1, 9)
    s = np.linspace(0, 6, 9)
    env = {"y": y, "s": s}
    assert np.allclose(d.eval(env), again.eval(env), rtol=1e-15, atol=1e-15)


def test_free_vars():
    assert parse("x1*lam + sin(s)").free_vars() == {"x1", "lam", "s"}
    assert parse("2 + 2").free_vars() == set()


def test_constant_folding_collapses_numbers():
    assert str(parse("2 + 3*4")) == "14.0"
    # the identities y^0 = 1, --y = y and y/1 = y fold too
    assert parse("y^0") == Const(1.0)
    assert parse("--y") == parse("y/1") == Var("y")
    d = differentiate(parse("5"), "y")
    assert d.eval({}) == 0.0


def test_diff_var_restricted_to_unknowns():
    with pytest.raises(ExprError):
        differentiate(parse("x1^2"), "x1")
    with pytest.raises(ExprError):
        differentiate(parse("y"), "y", 0)


@pytest.mark.parametrize("bad", [
    "", "x1 +", "(y", "y))", "2 **", "sin", "sin 2", "1..2", "y ^ lam",
    "foo(2)", "x3", "u",
    # numbers and folded constants outside the float range
    "1e400", "10^400", "(1e200)^2", "1e308*10", "1e308/1e-10",
    "1e308 + 1e308", "-1e308 - 1e308",
    # constant folds that are undefined
    "y/0", "(-8)^0.5", "0^(-1)",
])
def test_parse_errors(bad):
    with pytest.raises(ParseError):
        parse(bad)


@pytest.mark.parametrize("text,pos", [
    ("y + 1e400", 4), ("y * 10^400", 6), ("(1e200)^2", 7), ("1e308*10", 5),
    ("2 + 1e308 + 1e308", 10)])
def test_overflowing_constant_is_a_parse_error_at_its_operator(text, pos):
    with pytest.raises(ParseError, match="overflows") as err:
        parse(text)
    assert err.value.pos == pos


def test_parse_error_position():
    with pytest.raises(ParseError) as err:
        parse("y + @")
    assert err.value.pos == 4


@pytest.mark.parametrize("name", NON_SMOOTH)
def test_non_smooth_rejected(name):
    with pytest.raises(ParseError):
        parse(f"{name}(y)")


def test_parse_takes_only_a_string():
    with pytest.raises(TypeError, match="must be a string"):
        parse(1)


def test_non_constant_exponent_rejected():
    with pytest.raises(ParseError):
        parse("2^y")
    # an exponent that folds to a constant is fine
    assert parse("y^(1+1)").eval({"y": 3.0}) == 9.0


@pytest.mark.parametrize("text,env", [
    ("ln(y)", {"y": -1.0}),
    ("ln(y)", {"y": 0.0}),
    ("sqrt(y)", {"y": -2.0}),
    ("1/y", {"y": 0.0}),
    ("y^0.5", {"y": -1.0}),
    ("y^-1", {"y": 0.0}),
    ("y^-0.5", {"y": 0.0}),
])
def test_eval_domain_errors(text, env):
    with pytest.raises(EvalError):
        parse(text).eval(env)


def test_eval_unbound_variable():
    with pytest.raises(EvalError):
        parse("y + lam").eval({"y": 1.0})


def test_errors_are_expr_errors():
    assert issubclass(ParseError, ExprError)
    assert issubclass(EvalError, ExprError)


def test_precedence_and_unary_minus():
    assert parse("-2^2").eval({}) == -4.0
    assert parse("(-2)^2").eval({}) == 4.0
    assert parse("2 - -3").eval({}) == 5.0
    assert parse("6/2/3").eval({}) == 1.0
    assert parse("2*3^2").eval({}) == 18.0


def test_vectorized_broadcast():
    e = parse("x1 + y")
    out = e.eval({"x1": np.zeros(5), "y": 2.0})
    assert out.shape == (5,)
    assert np.all(out == 2.0)


# --- the node contract: immutable, equal and hashed by type and structure


INSTANCE_FILES = sorted(CONFIG_DIR.glob("*.ini")) + sorted(
    (CONFIG_DIR.parent / "perfbench" / "instances").glob("*.ini"))


@pytest.mark.parametrize("path", INSTANCE_FILES, ids=lambda p: p.stem)
def test_instance_expressions_reparse_to_equal_trees(path):
    # the printed form of every expression of an instance file and of its
    # y-derivatives parses back to an equal tree, and the free variables
    # are exactly the variable names of the printed form
    cfg = parse_instance(path)
    spec = cfg.problem
    exprs = [getattr(spec, k) for k in (
        "a11", "a12", "a22", "a0", "obj_domain", "obj_boundary", "alpha",
        "beta", "reaction", "param_ref")] + list(spec.constraints)
    if cfg.sweep is not None:
        exprs.append(cfg.sweep.delta)
    for e in exprs:
        for tree in (e, differentiate(e, "y"), differentiate(e, "y", 2)):
            text = str(tree)
            assert parse(text) == tree, text
            assert hash(parse(text)) == hash(tree)
            names = set(re.findall(r"[A-Za-z_]\w*", text)) & set(VARIABLES)
            assert tree.free_vars() == names, text


def test_nodes_are_immutable():
    nodes = {"value": Const(2.0), "name": Var("y"),
             "left": Add(Var("y"), Const(1.0)), "arg": Neg(Var("y")),
             "exponent": Pow(Var("y"), 3.0), "func": Call("sin", Var("s"))}
    for field, node in nodes.items():
        text = str(node)
        with pytest.raises(AttributeError):
            setattr(node, field, Const(0.0))
        # some CPython versions raise TypeError for a new attribute of a
        # frozen slotted dataclass
        with pytest.raises((AttributeError, TypeError)):
            node.extra = 1
        assert str(node) == text


def test_equality_and_hash_follow_type_and_structure():
    a, b = Var("x1"), Var("y")
    assert Add(a, b) == Add(Var("x1"), Var("y"))
    assert Add(a, b) != Sub(a, b)
    assert Add(a, b) != Add(b, a)
    assert Mul(a, b) != Div(a, b)
    assert Const(1) == Const(1.0) and Pow(b, 2) == Pow(b, 2.0)
    assert Call("sin", b) != Call("cos", b)
    table = {parse("x1 + y"): "sum", parse("x1 - y"): "difference"}
    assert table[Add(a, b)] == "sum"
    assert table[parse("x1 - y")] == "difference"
    assert len({parse("sin(s)^2"), parse("sin(s)^2.0")}) == 1


def test_repr_shows_class_and_printed_form():
    assert repr(parse("x1 + y")) == "Add(x1 + y)"
    assert repr(parse("2.5")) == "Const(2.5)"
    assert repr(parse("ln(y)")) == "Call(ln(y))"
    assert repr(parse("-(y - 1)")) == "Neg(-(y - 1.0))"
