"""End-to-end tests for the command line interface.

Each test invokes main() directly and checks stdout, stderr, and the
return code. Exit code conventions: 0 on success (including UNKNOWN
decisions), 1 on usage errors, 2 on invalid input files.
"""

import pytest

from steinkit import presentation
from steinkit.cli import main
from steinkit.front import parse_front
from steinkit.presentation import parse_surgery

TREFOIL = """\
front 1
handles 0
events L1 L3 X2 X2 X2 R2 R1
orient 1 +
coeff 1 stein
"""

# Two 0-framed unknots with a single l0 handle, theta = -2.
THETA_EXAMPLE = """\
surgery 1
components 2
coeff 1 0
coeff 2 0
rot 1 0
l0 2
"""

CHAIN = """\
surgery 1
components 1
coeff 1 -3
unknot 1
rot 1 0
tb 1 -1
"""


@pytest.fixture
def trefoil(tmp_path):
    path = tmp_path / "trefoil.front"
    path.write_text(TREFOIL)
    return str(path)


@pytest.fixture
def theta_example(tmp_path):
    path = tmp_path / "example.surgery"
    path.write_text(THETA_EXAMPLE)
    return str(path)


@pytest.fixture
def chain(tmp_path):
    path = tmp_path / "chain.surgery"
    path.write_text(CHAIN)
    return str(path)


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_stats_trefoil(capsys, trefoil):
    rc, out, _ = run(capsys, "stats", trefoil)
    assert rc == 0
    assert out.splitlines() == [
        "component: 1",
        "tb: 1",
        "r: 0",
        "w: 3",
        "lambda: 2",
    ]


def test_lint_trefoil(capsys, trefoil):
    rc, out, _ = run(capsys, "lint", trefoil)
    assert rc == 0
    lines = out.splitlines()
    assert "parity: ok" in lines
    assert lines[-1] == "ok: true"


def test_check_stein(capsys, trefoil):
    rc, out, _ = run(capsys, "check-stein", trefoil)
    assert rc == 0
    assert out.splitlines()[0] == "ok: true"


def test_surger_trefoil(capsys, trefoil):
    rc, out, _ = run(capsys, "surger", trefoil)
    assert rc == 0
    assert out == "surgery 1\ncomponents 1\ncoeff 1 0\nrot 1 0\ntb 1 1\n"
    p = parse_surgery(out)
    assert p.m == 1


def test_stabilize_preserves_rotation_parity(capsys, trefoil):
    rc, out, _ = run(capsys, "stabilize", "1", "up", trefoil)
    assert rc == 0
    d = parse_front(out)
    assert len(d.events) == 9


def test_move_output_reparses(capsys, trefoil):
    rc, out, _ = run(
        capsys, "move", "2", "--at", "6", "--variant", "birth-above", trefoil
    )
    assert rc == 0
    d = parse_front(out)
    assert len(d.events) == 9


def test_move_rejected_with_reason(capsys, trefoil):
    rc, out, err = run(capsys, "move", "1", "--at", "2", trefoil)
    assert rc == 2
    assert out == ""
    assert "not applicable" in err


def test_theta_example(capsys, theta_example):
    rc, out, _ = run(capsys, "theta", theta_example)
    assert rc == 0
    assert out == "theta: -2\n"


def test_gamma_all_sublinks(capsys, theta_example):
    rc, out, _ = run(capsys, "gamma", theta_example)
    assert rc == 0
    lines = out.splitlines()
    # four characteristic sublinks, two lines each
    assert len(lines) == 8
    assert lines[0] == "sublink: empty"
    assert lines[1] == "gamma: (0,0) mod im(Q*)"
    assert set(lines[::2]) == {"sublink: empty", "sublink: 1", "sublink: 2", "sublink: 1 2"}


def test_gamma_explicit_sublink(capsys, theta_example):
    rc, out, _ = run(capsys, "gamma", "--sublink", "1", theta_example)
    assert rc == 0
    assert out == "sublink: 1\ngamma: (0,0) mod im(Q*)\n"


# One 0-framed unknot: its characteristic sublinks are empty and {1}.
ZERO_KNOT = "surgery 1\ncomponents 1\ncoeff 1 0\nunknot 1\nrot 1 0\n"

# 16 characteristic sublinks over Z/2 + Z/2 + Z/4 + Z.
TORSION = """\
surgery 1
components 4
coeff 1 2
coeff 2 -2
coeff 3 0
coeff 4 0
lk 1 2 2
lk 1 3 2
lk 2 3 -2
l0 3
l0 4
rot 1 -2
rot 2 0
"""


@pytest.mark.parametrize(
    "text", [ZERO_KNOT, THETA_EXAMPLE, TORSION], ids=["zero-knot", "theta-example", "torsion"]
)
def test_gamma_sublink_lines_round_trip(capsys, tmp_path, text):
    path = tmp_path / "x.surgery"
    path.write_text(text)
    rc, out, err = run(capsys, "gamma", str(path))
    assert (rc, err) == (0, "")
    lines = out.splitlines()
    assert lines[0] == "sublink: empty"
    for sub, gam in zip(lines[::2], lines[1::2]):
        members = sub.removeprefix("sublink: ")
        assert run(capsys, "gamma", "--sublink", members, str(path)) == (0, f"{sub}\n{gam}\n", "")
    assert run(capsys, "gamma", "--sublink", "", str(path)) == (0, "\n".join(lines[:2]) + "\n", "")


def test_h1(capsys, theta_example):
    rc, out, _ = run(capsys, "h1", theta_example)
    assert rc == 0
    assert out == "h1: Z^2\n"


def test_h1_of_a_long_chain_coefficient(capsys, tmp_path):
    # -1/70 on an unknot is the 3-sphere; its chain expansion has 70 links
    path = tmp_path / "s3.surgery"
    path.write_text("surgery 1\ncomponents 1\ncoeff 1 -1/70\nunknot 1\n")
    rc, out, err = run(capsys, "h1", str(path))
    assert (rc, out, err) == (0, "h1: 0\n", "")


def test_h1_of_an_expanded_long_chain(capsys, tmp_path):
    # the expansion has 70 components, past the witnessed Smith form's cap
    path = tmp_path / "s3.surgery"
    path.write_text("surgery 1\ncomponents 1\ncoeff 1 -1/70\n")
    rc, out, err = run(capsys, "expand", str(path))
    assert (rc, err) == (0, "")
    expanded = tmp_path / "expanded.surgery"
    expanded.write_text(out)
    assert parse_surgery(out).m == 70
    assert run(capsys, "h1", str(expanded)) == (0, "h1: 0\n", "")


def test_expansion_past_the_component_limit_is_invalid_input(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(presentation, "MAX_COMPONENTS", 5)
    path = tmp_path / "long.surgery"
    path.write_text("surgery 1\ncomponents 1\ncoeff 1 -1/6\ntb 1 0\n")
    message = "error: the rewritten presentation would have 6 components; the limit is 5\n"
    for verb in ("expand", "plan"):
        assert run(capsys, verb, str(path)) == (2, "", message)
    path.write_text("surgery 1\ncomponents 1\ncoeff 1 -1/5\ntb 1 0\n")
    rc, out, err = run(capsys, "expand", str(path))
    assert (rc, err, parse_surgery(out).m) == (0, "", 5)


def test_empty_presentation(capsys, tmp_path):
    path = tmp_path / "empty.surgery"
    path.write_text("surgery 1\ncomponents 0\n")
    assert run(capsys, "h1", str(path)) == (0, "h1: 0\n", "")
    assert run(capsys, "theta", str(path)) == (0, "theta: -2\n", "")


def test_padded_rationals_are_usage_errors(capsys):
    for argv, token in (
        (("borromean", "--", " 1/2", "3", "4"), " 1/2"),
        (("borromean", "--", "1/2 ", "3", "4"), "1/2 "),
        (("seifert", "--coeff", " 2"), " 2"),
        (("seifert", "--coeff=-7/2\t"), "-7/2\t"),
    ):
        assert run(capsys, *argv) == (1, "", f"usage error: bad rational {token!r}\n")


@pytest.mark.parametrize("token", ["1_0", "\u0663"])
def test_number_tokens_are_ascii_digits(capsys, tmp_path, theta_example, chain, token):
    # int() reads these tokens as 10 and 3
    path = tmp_path / "bad.surgery"
    path.write_text(f"surgery 1\ncomponents 1\ncoeff 1 {token}\n")
    rc, out, err = run(capsys, "h1", str(path))
    assert (rc, out) == (2, "")
    assert err == f"error: line 3: bad rational {token!r}\n"

    rc, out, err = run(capsys, "twist", "1", token, chain)
    assert (rc, out) == (1, "")
    assert f"argument m: invalid int value: {token!r}" in err

    usage_errors = [
        (("borromean", "--twist-knot", f"{token} 1 -8"), f"expected an integer, got {token!r}"),
        (("seifert", f"--base=o{token}", "--coeff=-2"), f"base must look like o0 or n2, got 'o{token}'"),
        (("seifert", f"--coeff={token}"), f"bad rational {token!r}"),
        (("gamma", theta_example, "--sublink", token), f"bad sublink member {token!r}"),
    ]
    for argv, message in usage_errors:
        rc, out, err = run(capsys, *argv)
        assert (rc, out, err) == (1, "", f"usage error: {message}\n")


def test_twist(capsys, chain):
    rc, out, _ = run(capsys, "twist", "1", "1", chain)
    assert rc == 0
    assert "coeff 1 3/2" in out.splitlines()


def test_dunk_inverse(capsys, chain):
    rc, out, _ = run(capsys, "dunk", "1", "--inverse", "1/3", chain)
    assert rc == 0
    p = parse_surgery(out)
    assert p.m == 2
    assert "lk 1 2 1" in out.splitlines()


def test_dunk_requires_exactly_one_target(capsys, chain):
    rc, _, err = run(capsys, "dunk", "1", chain)
    assert rc == 1
    assert "usage error" in err


def test_expand_integer_presentation_is_fixed(capsys, chain):
    rc, out, _ = run(capsys, "expand", chain)
    assert rc == 0
    assert "coeff 1 -3" in out.splitlines()


def test_plan(capsys, chain):
    rc, out, _ = run(capsys, "plan", chain)
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "ok: true"
    assert "chain: -3" in lines
    assert "zigzags: 1" in lines


def test_blowdown_requires_unit_coefficient(capsys, chain):
    rc, _, err = run(capsys, "blowdown", "1", chain)
    assert rc == 2
    assert "+1 or -1" in err


def test_seifert_unknown_block(capsys):
    rc, out, _ = run(
        capsys,
        "seifert", "--base", "o0", "--coeff=-2", "--coeff=-3", "--coeff=5/4",
    )
    assert rc == 0
    assert out.splitlines() == [
        "base: o0",
        "e: 1/30",
        "e0: -1",
        "rprime: -2 -3 -5",
        "k0: 3",
        "decision: UNKNOWN",
        "detail: no sufficient condition applied",
    ]


def test_brieskorn_yes_block(capsys):
    rc, out, _ = run(capsys, "brieskorn", "2", "3", "7")
    assert rc == 0
    assert out.splitlines() == [
        "coeff: -2",
        "coeff: -3",
        "coeff: 7/6",
        "e: -1/42",
        "e0: -1",
        "rprime: -2 -3 -7",
        "k0: 3",
        "decision: YES(c)",
        "detail: pair (1, 2) bounds the rest",
        "pair: (1, 2)",
        "n: -5",
        "witness: [3 1; 2 1]",
    ]


def test_borromean_unknown(capsys):
    rc, out, _ = run(capsys, "borromean", "--", "1", "1", "1")
    assert rc == 0
    lines = out.splitlines()
    assert "decision: UNKNOWN" in lines
    assert "inA0: true" in lines
    assert "inA2: false" in lines
    assert "inA3: false" in lines


def test_borromean_twist_knot_flag(capsys):
    rc, out, _ = run(capsys, "borromean", "--twist-knot", "1 1 -8")
    assert rc == 0
    lines = out.splitlines()
    assert lines[:3] == ["coeff: -1", "coeff: -1", "coeff: -8"]
    assert "decision: YES" in lines


def test_borromean_wrong_arity(capsys):
    rc, _, err = run(capsys, "borromean", "--", "1", "1")
    assert rc == 1
    assert "three coefficients" in err


def test_missing_file_is_input_error(capsys, tmp_path):
    rc, _, err = run(capsys, "stats", str(tmp_path / "missing.front"))
    assert rc == 2
    assert "cannot read" in err


def test_unknown_verb_is_usage_error(capsys):
    rc, _, _ = run(capsys, "nonsense")
    assert rc == 1


def test_help_exits_zero(capsys):
    rc, _, _ = run(capsys, "--help")
    assert rc == 0


def test_parse_error_reports_line(capsys, tmp_path):
    path = tmp_path / "bad.front"
    path.write_text("front 1\nhandles 0\ncolor blue\n")
    rc, _, err = run(capsys, "stats", str(path))
    assert rc == 2
    assert "line 3" in err


def test_front_round_trip(capsys, trefoil, tmp_path):
    rc, out, _ = run(capsys, "stabilize", "1", "down", trefoil)
    assert rc == 0
    again = tmp_path / "again.front"
    again.write_text(out)
    rc2, out2, _ = run(capsys, "stats", str(again))
    assert rc2 == 0
    assert "tb: 0" in out2.splitlines()


def test_byte_determinism(capsys, theta_example):
    rc1, out1, _ = run(capsys, "gamma", theta_example)
    rc2, out2, _ = run(capsys, "gamma", theta_example)
    assert (rc1, out1) == (rc2, out2)
