"""End-to-end runs on crossed modules outside the standard fixture set."""

from pathlib import Path

import pytest

from conftest import cyclic, fixture
from xmodloop.exactseq import (
    coinvariants,
    exact_sequence,
    example1_check,
    fibration_psi,
    fixed_points,
)
from xmodloop.groups import group_action, homomorphism, make_group
from xmodloop.loop import components, loop_data, pi_loop, theta
from xmodloop.nerve import k2_count_formula, nerve_k3
from xmodloop.xmod import check_axioms, homotopy, make_xmod


@pytest.fixture(scope="module")
def inner_d4():
    """The rotation subgroup C4 sitting normally inside D4, with conjugation."""
    names = [f"r{i}" for i in range(4)] + [f"s{i}" for i in range(4)]

    def compose(x, y):  # x then y, for symmetries of the square
        xi, x_rot = int(x[1]), x[0] == "r"
        yi, y_rot = int(y[1]), y[0] == "r"
        if x_rot and y_rot:
            return f"r{(xi + yi) % 4}"
        if x_rot:
            return f"s{(xi + yi) % 4}"
        if y_rot:
            return f"s{(xi - yi) % 4}"
        return f"r{(xi - yi) % 4}"

    table = [[compose(a, b) for b in names] for a in names]
    P = make_group(names, table, "r0")
    rotations = [f"r{i}" for i in range(4)]
    M = make_group(rotations, [[f"r{(i + j) % 4}" for j in range(4)] for i in range(4)], "r0")
    delta = homomorphism(M, P, {m: m for m in M})
    act = group_action(P, M, {(m, p): P.conj(m, p) for m in M for p in P})
    return make_xmod(M, P, delta, act, name="inn4")


@pytest.fixture(scope="module")
def sign_module():
    """C3 as a module over S3 through the sign: reflections invert, rotations fix."""
    M = cyclic(3)
    P = fixture("conj_s3").P
    delta = homomorphism(M, P, {m: "e" for m in M})
    inverts = {"s", "rs", "r2s"}
    table = {(m, p): (M.neg(m) if p in inverts else m) for m in M for p in P}
    return make_xmod(M, P, delta, group_action(P, M, table), name="sign33")


def test_inner_d4_counts(inner_d4):
    x = inner_d4
    assert check_axioms(x) == []
    data = homotopy(x)
    assert len(data.pi1) == 2 and len(data.pi2) == 1
    assert sorted(len(c) for c in components(x)) == [4, 4]
    assert k2_count_formula(x) == 256
    assert len(nerve_k3(x)) == len(x.M) ** 3 * len(x.P) ** 3


def test_inner_d4_loop_structure(inner_d4):
    x = inner_d4
    fibration_psi(x)
    for a in x.P:
        assert check_axioms(loop_data(x, a).xmod) == []
        assert theta(x, a).is_isomorphism()
        seq = exact_sequence(x, a)
        assert len(seq.terms[3]) == 2


def test_sign_module_homotopy(sign_module):
    x = sign_module
    data = homotopy(x)
    assert len(data.pi1) == 6 and len(data.pi2) == 3
    # components of the loop space = conjugacy classes of S3
    assert sorted(len(c) for c in components(x)) == [1, 2, 3]


def test_sign_module_loop_at_rotation(sign_module):
    x = sign_module
    # a rotation acts trivially on pi, so nothing is killed
    assert list(fixed_points(x, "r")) == ["0", "1", "2"]
    assert len(coinvariants(x, "r")) == 3
    seq = exact_sequence(x, "r")
    assert seq.term_orders() == (3, 3, 3, 9, 3)


def test_sign_module_loop_at_reflection(sign_module):
    x = sign_module
    # a reflection inverts pi = C3: no fixed points, coinvariants collapse
    assert list(fixed_points(x, "s")) == ["0"]
    assert len(coinvariants(x, "s")) == 1
    seq = exact_sequence(x, "s")
    assert seq.term_orders() == (1, 3, 3, 2, 2)


def test_sign_module_example1_everywhere(sign_module):
    x = sign_module
    for a in x.P:
        assert example1_check(x, a) == []
    assert len(pi_loop(x, "e").pi1) == 18


def test_sign_module_loop_axioms(sign_module):
    x = sign_module
    for a in x.P:
        assert check_axioms(loop_data(x, a).xmod) == []
        assert theta(x, a).is_isomorphism()


def test_readme_library_example_runs_as_written(monkeypatch):
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    block = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    monkeypatch.chdir(root)
    names: dict = {}
    exec(compile(block, "README.md", "exec"), names)
    assert (len(names["data"].pi1), len(names["data"].pi2)) == (6, 3)
    assert (len(names["at"].pi1), len(names["at"].pi2)) == (6, 3)
    assert check_axioms(names["lx"]) == []
