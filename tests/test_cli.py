"""End-to-end tests for the command line interface.

Each test invokes main() directly and checks stdout, stderr, and the
return code; only the closed-stdout test, which needs a child that owns
its stdout, the import-set tests, which need a cold interpreter, the
node-limit test, which needs a child with capped memory, and the
300-chain theta and tall Seifert tests, which run their verbs end to end
in a fresh interpreter, run child processes. Exit code conventions: 0 on success (including UNKNOWN
decisions), 1 on usage errors, 2 on invalid input files, 3 on internal
failures.
"""

import argparse
import hashlib
import importlib
import os
import random
import re
import resource
import runpy
import subprocess
import sys
from collections import Counter
from itertools import compress
from math import gcd
from pathlib import Path

import pytest

from steinkit import cli, families, invariants, numerics, surgery
from steinkit.cli import main
from steinkit.front import (
    MAX_NODES,
    FrontDiagram,
    FrontError,
    apply_move,
    component_stats,
    parity_lint,
    parse_event_word,
    parse_front,
    serialize_front,
)
from steinkit.numerics import INF, rat
from steinkit.presentation import SurgeryPresentation, parse_surgery, serialize_surgery

from random_fronts import move_candidates, random_front

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
        "passes: 0",
    ]


def test_stats_passes_are_the_unsigned_handle_passes(capsys, tmp_path):
    # each component's unsigned handle passes, summed: parity_lint's total_passes
    rng = random.Random(38)
    seen = set()
    for k in range(40):
        d = random_front(rng, max_handles=3, max_slot=3, max_extra=12)
        path = tmp_path / f"{k}.front"
        path.write_text(serialize_front(d))
        rc, out, err = run(capsys, "stats", str(path))
        assert (rc, err) == (0, "")
        lines = out.splitlines()
        assert [line.split(":")[0] for line in lines] == [
            "component", "tb", "r", "w", "lambda", "passes"
        ] * len(component_stats(d))
        passes = [int(line.split()[1]) for line in lines if line.startswith("passes:")]
        assert passes == [sum(s.passes) for s in component_stats(d)]
        assert passes == [rep.total_passes for rep in parity_lint(d)]
        seen.update(passes)
    assert len(seen) > 3  # the draws reach several counts, not only 0


def test_lint_is_not_a_verb(capsys, trefoil):
    # stats prints the pass counts; lint is refused as any unknown verb
    # is, by argparse's invalid-choice error
    rc, out, err = run(capsys, "lint", trefoil)
    assert (rc, out) == (1, "")
    assert err == run(capsys, "nonsense", trefoil)[2].replace("'nonsense'", "'lint'")
    assert err.splitlines()[-1].startswith("steinkit: error: argument verb: invalid choice: 'lint'")


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
    rc, out, err = run(capsys, "gamma", "--sublink", "0 3", theta_example)
    assert (rc, out, err) == (1, "", "usage error: sublink members [0, 3] out of range 1..2\n")


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


def free_zero_unknots(k):
    """k unlinked 0-framed unknots: Q* = 0, so all 2^k sublinks are characteristic."""
    lines = ["surgery 1", f"components {k}"]
    lines += [f"coeff {i} 0\nunknot {i}\nrot {i} 0" for i in range(1, k + 1)]
    return "\n".join(lines) + "\n"


def test_gamma_listing_at_the_limit(capsys, tmp_path):
    k = cli.MAX_LISTED_SUBLINKS.bit_length() - 1
    assert cli.MAX_LISTED_SUBLINKS == 1 << k
    path = tmp_path / "free.surgery"
    path.write_text(free_zero_unknots(k))
    rc, out, err = run(capsys, "gamma", str(path))
    lines = out.splitlines()
    assert (rc, err) == (0, "")
    assert len(lines) == 2 * cli.MAX_LISTED_SUBLINKS
    assert lines[:2] == ["sublink: empty", "gamma: " + "(" + ",".join("0" * k) + ") mod im(Q*)"]


def test_gamma_listing_past_the_limit_enumerates_nothing(capsys, tmp_path, monkeypatch):
    k = cli.MAX_LISTED_SUBLINKS.bit_length()  # one more free unknot doubles the count

    def refuse(*_):
        raise AssertionError("enumerated the sublinks")

    monkeypatch.setattr(numerics.Gf2Solution, "enumerate", refuse)
    monkeypatch.setattr(invariants, "characteristic_sublinks", refuse)
    path = tmp_path / "free.surgery"
    path.write_text(free_zero_unknots(k))
    rc, out, err = run(capsys, "gamma", str(path))
    assert (rc, out) == (2, "")
    assert err == (
        f"error: {2 * cli.MAX_LISTED_SUBLINKS} characteristic sublinks, more than the "
        f"{cli.MAX_LISTED_SUBLINKS} that gamma lists; pick one with --sublink\n"
    )
    # one sublink of the same presentation is still answered
    assert run(capsys, "gamma", "--sublink", "1", str(path))[0] == 0


def test_internal_failure_exits_3(capsys, monkeypatch):
    # the certificate check itself runs, on a search result that is one off
    check = families._check_witness

    def corrupted(res, sn, sd, pn, pd):
        if res.value is not None:
            res = families.NFunctionResult(res.kind, res.value - 1, res.infinite, res.witness)
        check(res, sn, sd, pn, pd)

    monkeypatch.setattr(families, "_check_witness", corrupted)
    rc, out, err = run(capsys, "brieskorn", "2", "3", "5", "--orientation", "-")
    assert (rc, out) == (3, "")
    assert err.startswith("error: internal: witness ")


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
    monkeypatch.setattr(surgery, "MAX_COMPONENTS", 5)
    path = tmp_path / "long.surgery"
    path.write_text("surgery 1\ncomponents 1\ncoeff 1 -1/6\ntb 1 0\n")
    message = "error: the rewritten presentation would have 6 components; the limit is 5\n"
    for verb in ("expand", "plan"):
        assert run(capsys, verb, str(path)) == (2, "", message)
    path.write_text("surgery 1\ncomponents 1\ncoeff 1 -1/5\ntb 1 0\n")
    rc, out, err = run(capsys, "expand", str(path))
    assert (rc, err, parse_surgery(out).m) == (0, "", 5)
    # a file that declares more components than the limit is refused too
    path.write_text("surgery 1\ncomponents 6\n" + "".join(f"coeff {i} 0\n" for i in range(1, 7)))
    assert run(capsys, "h1", str(path)) == (2, "", "error: components 6 exceeds the limit of 5\n")


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
    rc, out, err = run(capsys, "dunk", "1", "2", chain, "--inverse", "1/3")
    assert (rc, out, err) == (1, "", "usage error: dunk takes either <j> or --inverse, not both\n")


def test_dunk_absorbs_the_meridian_it_grew(capsys, chain, tmp_path):
    rc, grown, _ = run(capsys, "dunk", "1", "--inverse", "1/3", chain)
    path = tmp_path / "grown.surgery"
    path.write_text(grown)
    rc, out, err = run(capsys, "dunk", "1", "2", str(path))
    assert (rc, out, err) == (0, "surgery 1\ncomponents 1\ncoeff 1 -3\nunknot 1\n", "")


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


def test_plan_lists_every_violation(capsys, tmp_path):
    path = tmp_path / "violations.surgery"
    path.write_text("surgery 1\ncomponents 2\ncoeff 1 0\ncoeff 2 -2\ntb 1 -1\n")
    rc, out, err = run(capsys, "plan", str(path))
    assert (rc, err) == (0, "")
    assert out.splitlines() == [
        "ok: false",
        "violation: component 1 coefficient 0 is not below tb = -1",
        "violation: component 2 no tb data",
    ]


@pytest.mark.parametrize(
    "verb, text, repeat, lineno",
    [
        ("check-stein", TREFOIL, "coeff 1 5", 6),
        ("plan", CHAIN.replace("-3", "-2"), "tb 1 7", 7),
    ],
)
def test_a_repeated_value_line_exits_2(capsys, tmp_path, verb, text, repeat, lineno):
    # the last line used to win: check-stein judged coefficient 5, and
    # plan planned 8 zig-zags for tb 7
    path = tmp_path / "repeat.txt"
    path.write_text(text + repeat + "\n")
    rc, out, err = run(capsys, verb, str(path))
    assert (rc, out) == (2, "")
    key = repeat.split()[0]
    assert f"line {lineno}: duplicate {key} for component 1" in err


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


@pytest.mark.parametrize(
    "argv",
    [
        ("seifert", "--coeff", "2", "--search-bound=0"),
        ("seifert", "--base", "n1", "--coeff", "2", "--search-bound=-7"),
        ("brieskorn", "2", "3", "5", "--search-bound=0"),
    ],
)
def test_bad_search_bound_is_invalid_input(capsys, argv):
    # each of these is decided by a rule that needs no search
    rc, out, err = run(capsys, *argv)
    assert rc == 2
    assert out == ""
    assert err.startswith("error: search bound must be positive, got ")


def test_brieskorn_at_a_huge_search_bound(capsys):
    # the search never looks past the coefficients' heights
    argv = ("brieskorn", "2", "3", "5", "--orientation", "-")
    default = run(capsys, *argv)
    assert default[0] == 0
    assert "decision: UNKNOWN" in default[1].splitlines()
    assert run(capsys, *argv, "--search-bound", "1000000000") == default


def test_a_tall_seifert_pair_is_decided_in_a_child():
    # r' = (-2001/2000, -3001/2000, -2): the first pair searched had a box
    # of 3002 * 4001 rows at this bound.  The timeout only stops a hang.
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "steinkit.cli", "seifert", "--coeff=2001", "--coeff=-3001/2000",
         "--coeff=-2", "--search-bound=1000000000"],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    lines = proc.stdout.splitlines()
    assert "rprime: -2001/2000 -3001/2000 -2" in lines
    assert lines[-4:] == [
        "detail: pair (1, 2) bounds the rest", "pair: (1, 2)", "n: 3", "witness: [2 1; -3 -1]"
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


ONE_SOURCE = "borromean needs exactly one of: three coefficients, --twist-knot, --two-component"


@pytest.mark.parametrize(
    "argv, message",
    [
        ((), ONE_SOURCE),
        (("--twist-knot", "1 1 -8", "--two-component", "1 2 3"), ONE_SOURCE),
        (("--twist-knot", "1 1"), '--twist-knot needs "L M R"'),
        (("--two-component", "1 2"), '--two-component needs "M R1 R2"'),
    ],
)
def test_borromean_needs_one_well_formed_source(capsys, argv, message):
    rc, out, err = run(capsys, "borromean", *argv)
    assert (rc, out, err) == (1, "", f"usage error: {message}\n")


def test_missing_file_is_input_error(capsys, tmp_path):
    rc, _, err = run(capsys, "stats", str(tmp_path / "missing.front"))
    assert rc == 2
    assert "cannot read" in err


def test_unknown_verb_is_usage_error(capsys):
    rc, _, _ = run(capsys, "nonsense")
    assert rc == 1


def test_help_exits_zero(capsys):
    rc, out, _ = run(capsys, "--help")
    assert rc == 0
    assert "{" + ",".join(VERB_CALLS) + "}" in out
    for verb in VERB_CALLS:
        rc, out, err = run(capsys, verb, "--help")
        assert (rc, err) == (0, "") and out.startswith(f"usage: steinkit {verb} ")


def test_parse_error_reports_line(capsys, tmp_path):
    path = tmp_path / "bad.front"
    path.write_text("front 1\nhandles 0\ncolor blue\n")
    rc, _, err = run(capsys, "stats", str(path))
    assert rc == 2
    assert "line 3" in err


# The refusals that the two formats share, with their exact messages: the
# header, the count line and the line numbers that comments, blank lines
# and line ends leave.
SHARED_REFUSALS = [
    ("front", "", "missing 'front 1' header"),
    ("front", "# only a comment\n\n", "missing 'front 1' header"),
    ("front", "front 2\nhandles 0\n", "missing 'front 1' header"),
    ("front", "front 1\n", "missing 'handles <n>' line"),
    ("front", "front 1\nevents L1 R1\n", "missing 'handles <n>' line"),
    ("front", "front 1\nhandles\n", "missing 'handles <n>' line"),
    ("front", "front 1\nhandles 0 0\n", "line 2: bad handle count"),
    ("front", "front 1\n\n# c\nhandles \u0663\n", "line 4: bad handle count"),
    ("front", "front 1\nhandles -1\n", "negative handle count"),
    ("front", "front 1\nhandles 2\nhandle 1 slots 0\n",
     "handles 2 exceeds the body lines, so one has no slot count"),
    ("front", "# c\n\nfront 1 # v1\n  \n#\nhandles 0\n\t\nwibble 3\n",
     "line 8: unknown or malformed key 'wibble'"),
    ("front", "front 1\nhandles 0\nevents L1 R1\ncoeff 1 x#2\n", "line 4: bad rational 'x'"),
    ("front", "front 1\nhandles 0\nevents L1 R1\ncoeff 1 -2 # tb - 1\ncoeff 1 1\n",
     "line 5: duplicate coeff for component 1"),
    ("front", "front 1\r\nhandles 0\r\n\r\ncolor blue\r\n", "line 4: unknown or malformed key 'color'"),
    ("front", "front 1\rhandles 0\r\r# c\rcolor blue\r", "line 5: unknown or malformed key 'color'"),
    ("surgery", "", "missing 'surgery 1' header"),
    ("surgery", "# only a comment\n\n", "missing 'surgery 1' header"),
    ("surgery", "surgery 2\ncomponents 0\n", "missing 'surgery 1' header"),
    ("surgery", "surgery 1\n", "missing 'components <m>' line"),
    ("surgery", "surgery 1\ncoeff 1 2\n", "missing 'components <m>' line"),
    ("surgery", "surgery 1\ncomponents\n", "missing 'components <m>' line"),
    ("surgery", "surgery 1\ncomponents 1 1\ncoeff 1 2\n", "line 2: bad components count"),
    ("surgery", "surgery 1\n\n# c\ncomponents \u0663\n", "line 4: bad components count"),
    ("surgery", "surgery 1\ncomponents -1\n", "negative component count"),
    ("surgery", "surgery 1\ncomponents 2\ncoeff 1 2\n",
     "components 2 exceeds the body lines, so one has no coefficient"),
    ("surgery", "# c\n\nsurgery 1 # v1\n  \n#\ncomponents 1\n\t\nframing 1 2\n",
     "line 8: unknown or malformed key 'framing'"),
    ("surgery", "surgery 1\ncomponents 1\ncoeff 1 x#2\n", "line 3: bad rational 'x'"),
    ("surgery", "surgery 1\ncomponents 1\ncoeff 1 -2 # a\ncoeff 1 1\n",
     "line 4: duplicate coeff for component 1"),
    ("surgery", "surgery 1\r\ncomponents 1\r\n\r\ncoeff 1 x\r\n", "line 4: bad rational 'x'"),
    ("surgery", "surgery 1\rcomponents 1\r\r# c\rcoeff 1 x\r", "line 5: bad rational 'x'"),
]


@pytest.mark.parametrize("fmt, text, message", SHARED_REFUSALS)
def test_both_formats_share_their_refusals(capsys, tmp_path, fmt, text, message):
    parse, verb = (parse_front, "stats") if fmt == "front" else (parse_surgery, "h1")
    with pytest.raises(ValueError) as refused:
        parse(text)
    assert type(refused.value) is (FrontError if fmt == "front" else surgery.PresentationError)
    assert str(refused.value) == message
    # a file verb reads the same bytes, through open()'s line ends, to the same refusal
    path = tmp_path / f"bad.{fmt}"
    path.write_bytes(text.encode())
    assert run(capsys, verb, str(path)) == (2, "", f"error: {message}\n")


# str.splitlines() ends a line at each of these too, but open() does not
NOT_LINE_ENDS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]


@pytest.mark.parametrize("char", NOT_LINE_ENDS, ids=lambda c: f"U+{ord(c):04X}")
def test_only_newline_and_carriage_return_end_a_line(capsys, tmp_path, char):
    # inside a line the character is whitespace, and line numbers count the file's lines
    assert parse_surgery(f"surgery 1\ncomponents 1\ncoeff 1{char}-2\n").coeffs == (numerics.rat(-2),)
    assert parse_front(f"front 1\nhandles 0\nevents L1{char}R1\n").events == parse_event_word("L1 R1")
    cases = [
        ("stats", f"front 1\nhandles 0\n{char}\nevents L1 Q1\n", "line 4: bad event token 'Q1'"),
        ("stats", f"front 1\nhandles 0\nevents L1 R1{char}orient 1 +\n", "line 3: bad event token 'orient'"),
        ("h1", f"surgery 1\ncomponents 1\n{char}\ncoeff 1 x\n", "line 4: bad rational 'x'"),
        ("plan", f"surgery 1\ncomponents 1\ncoeff 1 -2{char}tb 1 -1\n",
         "line 3: unknown or malformed key 'coeff'"),
    ]
    for verb, text, message in cases:
        with pytest.raises(ValueError) as refused:
            (parse_front if verb == "stats" else parse_surgery)(text)
        assert str(refused.value) == message
        path = tmp_path / "one.txt"
        path.write_bytes(text.encode())
        assert run(capsys, verb, str(path)) == (2, "", f"error: {message}\n")


def test_an_event_position_past_the_int_digit_limit_is_a_bad_token(capsys, tmp_path):
    # int() refuses a string of more than 4300 digits by default
    token = "X" + "1" * 5000
    with pytest.raises(FrontError) as refused:
        parse_event_word(f"L1 {token}")
    assert str(refused.value) == f"bad event token {token!r}"
    text = f"front 1\nhandles 0\nevents L1 {token}\n"
    with pytest.raises(FrontError) as refused:
        parse_front(text)
    assert str(refused.value) == f"line 3: bad event token {token!r}"
    path = tmp_path / "long.front"
    path.write_text(text)
    assert run(capsys, "stats", str(path)) == (2, "", f"error: line 3: bad event token {token!r}\n")


def test_front_round_trip(capsys, trefoil, tmp_path):
    rc, out, _ = run(capsys, "stabilize", "1", "down", trefoil)
    assert rc == 0
    again = tmp_path / "again.front"
    again.write_text(out)
    rc2, out2, _ = run(capsys, "stats", str(again))
    assert rc2 == 0
    assert "tb: 0" in out2.splitlines()


def test_a_front_past_the_node_limit_is_invalid_input(tmp_path):
    # 10**9 strands would mean per-node arrays of 10**9 entries, so the
    # child may not map more than 1 GiB: the limit must stop it before it
    # allocates anything
    path = tmp_path / "huge.front"
    path.write_text("front 1\nhandles 1\nhandle 1 slots 1000000000\n")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run(
        [sys.executable, "-m", "steinkit.cli", "stats", str(path)],
        capture_output=True, text=True, env=env, timeout=60, preexec_fn=cap_memory,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        "error: the front has 1000000000 nodes (strands summed over its column "
        f"boundaries); the limit is {MAX_NODES}\n"
    )


def test_theta_of_a_300_chain_in_a_child(tmp_path):
    # 300 unknots framed -2 in a chain, rot 0: c = 0, chi = 301 and
    # sigma = -300, so theta = 298.  The timeout only stops a hang.
    n = 300
    lines = ["surgery 1", f"components {n}"]
    lines += [f"coeff {i} -2" for i in range(1, n + 1)]
    lines += [f"lk {i} {i + 1} 1" for i in range(1, n)]
    lines += [f"{key} {i} {v}" for i in range(1, n + 1) for key, v in (("rot", 0), ("tb", -1))]
    lines += [f"unknot {i}" for i in range(1, n + 1)]
    path = tmp_path / "chain.surgery"
    path.write_text("\n".join(lines) + "\n")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-m", "steinkit.cli", "theta", str(path)],
        capture_output=True, text=True, env=env, timeout=600,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "theta: 298\n", "")


def test_theta_past_64_components_with_an_infinite_order_class(capsys, tmp_path):
    # a 0-framed knot with rot 2 beside 69 unlinked unknots framed -2:
    # coker Q* = Z + (Z/2)^69 and c = (2, 0, ..., 0), so d = 2; chi = 71
    # and sigma = -69 give -2 chi - 3 sigma = 65 = 1 mod 4
    n = 70
    lines = ["surgery 1", f"components {n}", "coeff 1 0", "rot 1 2"]
    lines += [f"{key} {i} {v}" for i in range(2, n + 1)
              for key, v in (("coeff", -2), ("rot", 0), ("tb", -1))]
    lines += [f"unknot {i}" for i in range(2, n + 1)]
    path = tmp_path / "wide.surgery"
    path.write_text("\n".join(lines) + "\n")
    assert run(capsys, "theta", str(path)) == (0, "d: 2\ntheta: 1 mod 4\n", "")


def test_the_functions_the_bench_traces_exist():
    # the traced bench run looks each (module, function) up with getattr,
    # so a renamed or deleted function breaks every traced run; run_path
    # compiles the file without writing bytecode next to it
    tracing = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    traced = runpy.run_path(str(tracing))["TRACED"]
    assert traced
    for module, function, _ in traced:
        found = getattr(importlib.import_module(f"steinkit.{module}"), function, None)
        assert callable(found), f"steinkit.{module}.{function}"


def front_corpus(rng, directory):
    """Seeded calls of the five front verbs on random FRONT files, some of
    them broken; returns the argv lists, with the files written into
    directory."""
    # random words seldom admit moves 3 and 4, so the first fronts do
    fixed = [((), "L1 L3 X2 X1 X2 R1 R1"), ((2,), "R1 L1"), ((1, 2), "L2 X1 X2 X1 R2")]
    calls = []
    for k in range(30):
        if k < len(fixed):
            d = FrontDiagram(fixed[k][0], parse_event_word(fixed[k][1]))
        else:
            d = random_front(rng, max_handles=3, max_slot=3, max_extra=14)
        n = d.trace.n_components
        lines = ["front 1", f"handles {d.n_handles}"]
        lines += [f"handle {h} slots {s}" for h, s in enumerate(d.slots, start=1)]
        tokens = [str(e) for e in d.events]
        if tokens and rng.random() < 0.1:
            tokens[rng.randrange(len(tokens))] = rng.choice(("Y2", "X0", "L", "R1x"))
        lines.append(" ".join(["events", *tokens]))
        for cid in range(1, n + 2 if rng.random() < 0.05 else n + 1):
            if rng.random() < 0.7:
                lines.append(f"orient {cid} {rng.choice('+-')}")
        for cid in range(1, n + 1):
            roll = rng.random()
            if roll < 0.5:
                lines.append(f"coeff {cid} stein")
            elif roll < 0.9:
                lines.append(f"coeff {cid} {rng.randint(-6, 4)}/{rng.randint(1, 3)}")
        path = directory / f"{k}.front"
        path.write_text("\n".join(lines) + "\n")
        f = str(path)
        calls += [["stats", f], ["check-stein", f], ["surger", f]]
        moves = move_candidates(d)
        applicable = [m for m in moves if applies(d, *m)]
        picks = rng.sample(applicable, min(2, len(applicable))) + rng.sample(moves, min(1, len(moves)))
        for move, kwargs in picks:
            argv = ["move", str(move), f]
            for key, value in kwargs.items():
                argv += [f"--{key}", str(value)]
            calls.append(argv)
        calls.append(["stabilize", str(rng.randint(1, n + 1)), rng.choice(("up", "down")), f])
    return calls


def applies(d, move, kwargs):
    try:
        apply_move(d, move, **kwargs)
    except FrontError:
        return False
    return True


def corpus_digest(call, calls, directory):
    """The exit-code tally and a SHA-256 of every call's argv, exit code,
    stdout and stderr, with directory written as '@'."""
    digest, tally = hashlib.sha256(), Counter()
    for argv in calls:
        rc, out, err = call(argv)
        tally[rc] += 1
        digest.update(repr((argv, rc, out, err)).replace(str(directory), "@").encode())
    return dict(tally), digest.hexdigest()


# recorded once the lint verb went and stats gained a passes line per
# component: the corpus lost its 30 lint calls (238 to 208) and every
# stats report changed; the draws, and so every other call, are as before
FRONT_CORPUS = (
    {0: 152, 2: 56},
    "86e6a5d4a439db44b300507b20770a2cee56ff5e6ff741076444f6e7338807b0",
)


def test_front_verbs_reproduce_the_recorded_corpus(capsys, tmp_path):
    calls = front_corpus(random.Random(20261018), tmp_path)
    assert len(calls) == 208
    assert corpus_digest(lambda argv: run(capsys, *argv), calls, tmp_path) == FRONT_CORPUS


# Borromean region boundaries and floor breaks of -1/r (r = -1/n), each
# met exactly and one step of 1/q to either side
_EDGES = ["-1/3", "-1", "1", "4", "-6", "0"] + [f"-1/{n}" for n in range(1, 6)]


def family_corpus(rng):
    """Seeded calls of the three family verbs, some of them invalid;
    returns the argv lists."""

    def near_edge(edges=_EDGES):
        num, _, den = rng.choice(edges).partition("/")
        q = rng.randint(1, 4)
        den = int(den or 1)
        return f"{int(num) * q + rng.choice((-1, 0, 1)) * den}/{den * q}"

    def rational():
        roll = rng.random()
        if roll < 0.08:
            return "inf"
        if roll < 0.5:
            return near_edge()
        if roll < 0.52:
            return rng.choice(("0/0", "x", "1/-2", "0"))
        return f"{rng.randint(-30, 30)}/{rng.randint(1, 7)}"

    def fiber(floor):
        # -1/(floor + b/a), so the floors of -1/r sum as drawn
        a = rng.randint(2, 12)
        b = rng.choice([b for b in range(1, a) if gcd(a, b) == 1])
        return f"{-a}/{floor * a + b}"

    calls = []
    for _ in range(240):
        base = rng.choice(("o0",) * 8 + ("o1", "o2", "n1", "n3"))
        k = rng.randint(0, 5)
        if rng.random() < 0.6 and k:
            floors = [rng.randint(-1, 1) for _ in range(k - 1)]
            coeffs = [fiber(f) for f in floors + [-1 - sum(floors)]]
        else:
            coeffs = [rational() for _ in range(k)]
        if rng.random() < 0.15:
            coeffs.insert(rng.randint(0, len(coeffs)), "inf")
        calls.append(["seifert", f"--base={base}", *(f"--coeff={c}" for c in coeffs),
                      f"--search-bound={rng.randint(1, 60)}"])
    for _ in range(60):
        if rng.random() < 0.7:
            triple = map(str, rng.sample((2, 3, 5, 7, 11, 13, 4, 9), 3))
        else:
            triple = [str(rng.randint(1, 15)) for _ in range(3)]
        calls.append(["brieskorn", *triple, f"--orientation={rng.choice('+-')}",
                      f"--search-bound={rng.randint(1, 60)}"])
    calls += [["brieskorn", "2", "3", "5", "--orientation=-", f"--search-bound={b}"]
              for b in (1, 50, 60)]
    for _ in range(300):
        roll = rng.random()
        if roll < 0.25:
            calls.append(["borromean", "--", rational(), rational(), rational()])
        elif roll < 0.5:
            # three values near the edges of one region, so memberships vary
            edges = rng.choice(
                (["1", "4"], ["-1/3", "-1/2", "0", "-6", "-4"], ["-1", "-6", "-1/2", "-2"])
            )
            calls.append(["borromean", "--", *(near_edge(edges) for _ in range(3))])
        elif roll < 0.75:
            l, m = rng.randint(-4, 4), rng.randint(-4, 4)
            calls.append(["borromean", "--twist-knot", f"{l} {m} {rational()}"])
        else:
            m = rng.randint(-4, 4)
            calls.append(["borromean", "--two-component", f"{m} {rational()} {rational()}"])
    return calls


# recorded before the deciders moved onto (num, den) integers
FAMILY_CORPUS = (
    {0: 564, 2: 35, 1: 4},
    "4091d1f0404bd576d6d5f680e4b304bb7137fc1d4590b0d877428f97d932184c",
)


def test_family_verbs_reproduce_the_recorded_corpus(capsys, tmp_path):
    calls = family_corpus(random.Random(20261019))
    assert len(calls) == 603
    assert corpus_digest(lambda argv: run(capsys, *argv), calls, tmp_path) == FAMILY_CORPUS


def random_surgery(rng, integral):
    """A presentation drawn as tests/random_presentations.py draws them:
    flags, rot and tb data, about a fifth l0 unknots, and sometimes a
    coefficient -1/n with n in 65..80.  An integral one has integer
    coefficients, its unlinked l0 components last and most rotation
    numbers known, so that gamma and theta answer."""
    m = rng.randint(1, 5)
    coeffs = []
    for _ in range(m):
        roll = rng.random()
        if integral or roll < 0.3:
            coeffs.append(rat(rng.randint(-3, 3)))
        elif roll < 0.4:
            coeffs.append(INF)
        elif roll < 0.5:
            coeffs.append(rat(rng.choice((1, -1))))
        else:
            coeffs.append(rat(rng.randint(-12, 12), rng.randint(1, 7)))
    if not integral and rng.random() < 0.4:
        coeffs[rng.randrange(m)] = rat(-1, rng.randint(65, 80))
    l0 = [rng.randint(0, 4) == 0 for _ in range(m)]
    if integral:
        l0.sort()
    lk = [[0] * m for _ in range(m)]
    for i in range(m):
        for j in range(i):
            if not (integral and l0[i] and l0[j]):
                lk[i][j] = lk[j][i] = rng.randint(-2, 2)
    coeffs = [rat(0) if f else c for f, c in zip(l0, coeffs)]
    unknot = [f or rng.random() < 0.5 for f in l0]
    rot = [None if rng.random() < (0.05 if integral else 0.3) else rng.randint(-3, 3)
           for _ in range(m)]
    if integral and rng.random() < 0.8:
        # the parity under which gamma's class is integral: rot_i = q_ii
        # plus the linking with the l0 sublink, mod 2
        rot = [None if r is None else 2 * (r // 2) + (c.num + sum(compress(row, l0))) % 2
               for r, c, row in zip(rot, coeffs, lk)]
    tb = [None if c.is_infinite or rng.random() < 0.2 else c.num // c.den + rng.randint(1, 3)
          for c in coeffs]
    return SurgeryPresentation(coeffs=coeffs, lk=lk, unknot=unknot, l0=l0, rot=rot, tb=tb)


# broken lines for SURGERY files: a bad header, a bad value, an index out
# of range, a self-linking and a rational tb
_BROKEN = ["surgery 2", "coeff 1 x", "rot {m1} 0", "lk 1 1 2", "tb 1 1/2"]


def _index(rng, m):
    """A component index, one past the last in about one draw in seven."""
    return str(rng.randint(1, m + (rng.random() < 0.15)))


def surgery_corpus(rng, directory):
    """Seeded calls of the eight SURGERY verbs on random presentations,
    some of the files and arguments broken; returns the argv lists, with
    the files written into directory."""
    calls = []
    for k in range(32):
        p = random_surgery(rng, integral=k % 2 == 0)
        text = serialize_surgery(p)
        if rng.random() < 0.1:
            text += rng.choice(_BROKEN).format(m1=p.m + 1) + "\n"
        path = directory / f"{k}.surgery"
        path.write_text(text)
        f = str(path)
        calls += [["h1", f], ["expand", f], ["plan", f], ["gamma", f], ["theta", f]]
        calls.append(["twist", _index(rng, p.m), str(rng.randint(-2, 2)), f])
        # most dunks and blow-downs pick components they apply to, when there are some
        meridians = [(str(i + 1), str(j + 1)) for i in range(p.m) for j in range(p.m)
                     if abs(p.lk[i][j]) == 1 and p.unknot[j]]
        ones = [str(i + 1) for i, c in enumerate(p.coeffs)
                if p.unknot[i] and abs(c.num) == c.den == 1]
        roll = rng.random()
        if roll < 0.4 and meridians:
            calls.append(["dunk", *rng.choice(meridians), f])
        elif roll < 0.6:
            calls.append(["dunk", _index(rng, p.m), _index(rng, p.m), f])
        elif roll < 0.9:
            i = _index(rng, p.m)
            calls.append(["dunk", i, "--inverse", rng.choice(("-1/2", "3", "inf", "0", "x")), f])
        else:
            calls.append(["dunk", _index(rng, p.m), f])  # neither a meridian nor --inverse
        one = rng.choice(ones) if ones and rng.random() < 0.7 else _index(rng, p.m)
        calls.append(["blowdown", one, f])
        if p.m > 1 and rng.random() < 0.3:
            calls.append(["gamma", "--sublink", " ".join(_index(rng, p.m) for _ in range(2)), f])
    # n unlinked unknots framed -2, n in 65..80: 2^n characteristic
    # sublinks, past the cap of gamma's listing
    for k in range(3):
        n = rng.randint(65, 80)
        lines = ["surgery 1", f"components {n}"]
        lines += [f"coeff {i} -2\nunknot {i}\nrot {i} 0\ntb {i} -1" for i in range(1, n + 1)]
        path = directory / f"wide{k}.surgery"
        path.write_text("\n".join(lines) + "\n")
        f = str(path)
        calls += [["h1", f], ["gamma", f], ["gamma", "--sublink", "1 2", f], ["theta", f],
                  ["plan", f], ["blowdown", "1", f]]
    return calls


# recorded when the corpus was added; gamma --sublink on the three wide
# files exits 2 with the 64 cap of smith_normal_form (ROADMAP item 2)
SURGERY_CORPUS = (
    {0: 161, 2: 115, 1: 4},
    "802abd4c7af124e855d5af0bf5775abf2b7b389f21f256d74f7873b1afa4941b",
)


def test_surgery_verbs_reproduce_the_recorded_corpus(capsys, tmp_path):
    calls = surgery_corpus(random.Random(20261021), tmp_path)
    assert len(calls) == 280
    assert corpus_digest(lambda argv: run(capsys, *argv), calls, tmp_path) == SURGERY_CORPUS


def test_byte_determinism(capsys, theta_example):
    rc1, out1, _ = run(capsys, "gamma", theta_example)
    rc2, out2, _ = run(capsys, "gamma", theta_example)
    assert (rc1, out1) == (rc2, out2)


@pytest.mark.parametrize("verb", ["plan", "h1"])
def test_closed_stdout_is_a_quiet_success(tmp_path, verb):
    # plan's long report meets the closed pipe in write, h1's one line in
    # the flush; the read end is closed before the child starts
    path = tmp_path / "chain.surgery"
    path.write_text("surgery 1\ncomponents 1\ncoeff 1 -1/200\nunknot 1\ntb 1 0\n")
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "steinkit.cli", verb, str(path)],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (0, b"")


# One call of every verb, in the order --help lists them, with the steinkit
# modules it runs besides the package and rational (the scalars), which
# main needs.  These closures are the cost model of a call: each module
# listed is compiled when no bytecode is cached.  "@front" and "@surgery"
# stand for the two files below.
VERB_CALLS = {
    "stats": (["@front"], {"diagram"}),
    "check-stein": (["@front"], {"diagram"}),
    "surger": (["@front"], {"diagram", "surgery"}),
    "move": (["2", "--at", "6", "--variant", "birth-above", "@front"], {"diagram", "front"}),
    "stabilize": (["1", "up", "@front"], {"diagram", "front"}),
    "h1": (["@surgery"], {"surgery", "numerics"}),
    "expand": (["@surgery"], {"surgery", "presentation"}),
    "twist": (["1", "1", "@surgery"], {"surgery", "presentation"}),
    "dunk": (["1", "2", "@surgery"], {"surgery", "presentation"}),
    "blowdown": (["2", "@surgery"], {"surgery", "presentation"}),
    "plan": (["@surgery"], {"surgery", "presentation"}),
    "gamma": (["@surgery"], {"surgery", "numerics", "invariants"}),
    "theta": (["@surgery"], {"surgery", "numerics", "invariants"}),
    "seifert": (["--coeff=2", "--coeff=-3/2", "--coeff=-3/4"], {"families"}),
    "brieskorn": (["2", "3", "5"], {"families"}),
    "borromean": (["--", "1", "1", "1"], {"families"}),
}

# a -1-framed meridian on a -3-framed unknot, with tb and rotation data
MERIDIAN = """\
surgery 1
components 2
coeff 1 -3
coeff 2 -1
lk 1 2 1
unknot 1
unknot 2
rot 1 1
tb 1 -2
rot 2 1
tb 2 0
"""


def child_modules(cwd, *args):
    """Run python -X importtime with args in a fresh interpreter that
    compiles every source it imports.  Returns the exit code, the stderr
    lines that are not import times, and every module imported."""
    env = {
        **os.environ,
        "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1]),
        "PYTHONDONTWRITEBYTECODE": "1",
    }
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=60,
    )
    modules, other = set(), []
    for line in proc.stderr.splitlines():
        if line.startswith("import time:"):
            modules.add(line.rsplit("|", 1)[1].strip())
        else:
            other.append(line)
    return proc.returncode, other, modules


def child_imports(cwd, *args):
    """child_modules, with only the steinkit modules imported."""
    rc, other, modules = child_modules(cwd, *args)
    return rc, other, {m for m in modules if m.split(".")[0] == "steinkit"}


@pytest.mark.parametrize("verb", VERB_CALLS)
def test_each_verb_imports_only_the_modules_it_runs(tmp_path, verb):
    # a cold child, unlike this process, has imported nothing yet, so a
    # name a verb forgot to import fails here and nowhere in-process
    (tmp_path / "in.front").write_text(TREFOIL)
    (tmp_path / "in.surgery").write_text(MERIDIAN)
    args, layers = VERB_CALLS[verb]
    argv = [str(tmp_path / f"in.{a[1:]}") if a.startswith("@") else a for a in args]
    rc, err, modules = child_imports(tmp_path, "-m", "steinkit.cli", verb, *argv)
    assert (rc, err) == (0, [])
    assert modules == {"steinkit", "steinkit.rational"} | {f"steinkit.{m}" for m in layers}


@pytest.mark.parametrize("verb", VERB_CALLS)
def test_no_verb_imports_dataclasses_or_inspect(tmp_path, verb):
    # the value classes derive from numerics.Frozen: dataclasses, and the
    # inspect it loads, come in only to raise FrozenInstanceError
    (tmp_path / "in.front").write_text(TREFOIL)
    (tmp_path / "in.surgery").write_text(MERIDIAN)
    args, _ = VERB_CALLS[verb]
    argv = [str(tmp_path / f"in.{a[1:]}") if a.startswith("@") else a for a in args]
    rc, err, modules = child_modules(tmp_path, "-m", "steinkit.cli", verb, *argv)
    assert (rc, err) == (0, [])
    assert "steinkit.rational" in modules
    assert not modules & {"dataclasses", "inspect"}


def test_no_verb_imports_fractions_or_decimal(tmp_path):
    # only presentation.linking_form makes a Fraction, and no verb calls
    # it; one child runs every verb in turn, so it loads what any one does
    (tmp_path / "in.front").write_text(TREFOIL)
    (tmp_path / "in.surgery").write_text(MERIDIAN)
    calls = [[verb, *(str(tmp_path / f"in.{a[1:]}") if a.startswith("@") else a for a in args)]
             for verb, (args, _) in VERB_CALLS.items()]
    code = (
        "import contextlib, io, sys\nfrom steinkit.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    sys.exit(max(main(argv) for argv in {calls!r}))\n"
    )
    rc, err, modules = child_modules(tmp_path, "-c", code)
    assert (rc, err) == (0, [])
    assert {"steinkit.front", "steinkit.presentation", "steinkit.invariants", "steinkit.families"} <= modules
    assert not modules & {"fractions", "decimal"}


def test_importing_the_cli_imports_only_the_scalars(tmp_path):
    rc, err, modules = child_imports(tmp_path, "-c", "import steinkit.cli")
    assert (rc, err) == (0, [])
    assert modules == {"steinkit", "steinkit.cli", "steinkit.rational"}


# The console script imports steinkit.cli and calls main, so its closure
# holds steinkit.cli itself, which a -m child runs as __main__ instead.
MAIN_CLOSURE = """\
import sys
from steinkit.cli import main
rc = main(sys.argv[1:])
print(*sorted(m for m in sys.modules if m.split(".")[0] == "steinkit"), file=sys.stderr)
sys.exit(rc)
"""


@pytest.mark.parametrize("verb", VERB_CALLS)
def test_one_main_call_leaves_exactly_its_verbs_modules(tmp_path, verb):
    (tmp_path / "in.front").write_text(TREFOIL)
    (tmp_path / "in.surgery").write_text(MERIDIAN)
    args, layers = VERB_CALLS[verb]
    argv = [str(tmp_path / f"in.{a[1:]}") if a.startswith("@") else a for a in args]
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.run(
        [sys.executable, "-c", MAIN_CLOSURE, verb, *argv],
        capture_output=True, text=True, env=env, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode == 0 and proc.stdout
    assert set(proc.stderr.split()) == {"steinkit", "steinkit.cli", "steinkit.rational"} | {
        f"steinkit.{m}" for m in layers
    }


# argv cases for the one-verb parser: every verb's help, then a missing
# positional, bad ints, bad choices, extra arguments, unknown options after
# the verb, and calls that parse
PARSER_CASES = [
    *([verb, "-h"] for verb in VERB_CALLS),
    ["stats"], ["twist", "1", "f"], ["seifert", "--search-bound"],
    ["move", "1_0", "f"], ["brieskorn", "+3", "2", "5"], ["twist", "1", "x", "f"],
    ["stabilize", "1", "sideways", "f"], ["brieskorn", "2", "3", "5", "--orientation", "x"],
    ["h1", "a", "b"], ["stats", "f", "extra"], ["borromean", "1", "--", "--x"],
    ["theta", "f", "--nope"], ["seifert", "--bogus=1"], ["move", "1", "f", "--at=2", "-q"],
    ["stats", "f"], ["dunk", "1", "f", "--inverse=-1/2"], ["dunk", "1", "2", "f"],
    ["seifert", "--coeff=2", "--coeff=-3/2"], ["borromean", "--", "1", "-1", "1"],
    ["stabilize", "2", "down", "f", "--at", "3"], ["gamma", "f", "--sublink", "1 2"],
]


def parse_outcome(capsys, parser, argv):
    """What parsing argv prints and returns: (stdout, stderr, exit code or namespace)."""
    try:
        result = vars(parser.parse_args(argv))
    except SystemExit as exc:
        result = exc.code
    out, err = capsys.readouterr()
    return out, err, result


def built_verbs(parser):
    """The verbs whose subparsers parser holds."""
    (sub,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return list(sub.choices)


@pytest.mark.parametrize("argv", PARSER_CASES, ids=" ".join)
def test_the_one_verb_parser_reads_as_the_full_parser(capsys, monkeypatch, argv):
    monkeypatch.setenv("COLUMNS", "80")
    full, one = cli.build_parser(), cli.build_parser(argv)
    assert built_verbs(full) == list(VERB_CALLS) and built_verbs(one) == [argv[0]]
    assert parse_outcome(capsys, one, argv) == parse_outcome(capsys, full, argv)


def readme_first_column(header):
    """The code spans in the first column of the README table that starts
    at the line header, or after it when header is the line above."""
    lines = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8").splitlines()
    i = lines.index(header)
    while not lines[i].startswith("|"):
        i += 1
    spans = []
    for row in lines[i + 2 :]:  # past the header row and the separator
        if not row.startswith("|"):
            break
        spans += re.findall(r"`([^`]+)`", re.split(r"(?<!\\)\|", row)[1])  # a cell may hold an escaped "\|"
    return spans


def test_the_readme_verb_tables_name_the_parsers_verbs():
    verbs = built_verbs(cli.build_parser())
    named = {
        span.split()[0]
        for heading in ("Front verbs:", "Surgery verbs:", "Family verbs (no input file):")
        for span in readme_first_column(heading)
    }
    assert named == set(verbs)
    assert sorted(readme_first_column("| verbs | steinkit modules loaded |")) == sorted(verbs)
