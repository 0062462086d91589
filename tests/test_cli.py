"""End-to-end tests for the command line interface.

Each test invokes main() directly and checks stdout, stderr, and the
return code; only the closed-stdout test, which needs a child that owns
its stdout, the import-set tests, which need a cold interpreter, and the
node-limit test, which needs a child with capped memory, run child
processes. Exit code conventions: 0 on success (including UNKNOWN
decisions), 1 on usage errors, 2 on invalid input files, 3 on internal
failures.
"""

import hashlib
import os
import random
import resource
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from math import gcd
from pathlib import Path

import pytest

from steinkit import cli, families, invariants, numerics, presentation
from steinkit.cli import main
from steinkit.front import (
    MAX_NODES,
    FrontDiagram,
    FrontError,
    apply_move,
    parse_event_word,
    parse_front,
)
from steinkit.presentation import parse_surgery

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

    def corrupted(res, s, r2p):
        check(res if res.value is None else replace(res, value=res.value - 1), s, r2p)

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
    monkeypatch.setattr(presentation, "MAX_COMPONENTS", 5)
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


def test_pair_search_past_the_row_limit_is_invalid_input(capsys, monkeypatch):
    # r' = (-2, -3, -5); the first pair searched, (-2, -3), has hinge -2
    # and a box of 4 * 3 rows, and the largest box, of (-5, -3), has 6 * 9
    argv = ("brieskorn", "2", "3", "5", "--orientation", "-", "--search-bound", "1000000000")
    default = run(capsys, *argv)
    monkeypatch.setattr(families, "MAX_PAIR_ROWS", 54)
    assert run(capsys, *argv) == default
    monkeypatch.setattr(families, "MAX_PAIR_ROWS", 11)
    assert run(capsys, *argv) == (
        2, "", "error: the pair search would scan 12 rows; the limit is 11\n"
    )


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


def front_corpus(rng, directory):
    """Seeded calls of the six front verbs on random FRONT files, some of
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
        calls += [["stats", f], ["lint", f], ["check-stein", f], ["surger", f]]
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


# recorded once move 1 swapped like columns two heights apart, which it had
# refused as ambiguous; that changed which moves the corpus picks
FRONT_CORPUS = (
    {0: 178, 2: 60},
    "f55a993a8827ef612874bad34e0d59441d21c6ecbf17af83a53df99cd098203e",
)


def test_front_verbs_reproduce_the_recorded_corpus(capsys, tmp_path):
    calls = front_corpus(random.Random(20261018), tmp_path)
    assert len(calls) == 238
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
# modules it runs besides the package and numerics, which main needs.
# "@front" and "@surgery" stand for the two files below.
VERB_CALLS = {
    "stats": (["@front"], {"front"}),
    "lint": (["@front"], {"front"}),
    "check-stein": (["@front"], {"front"}),
    "surger": (["@front"], {"front", "presentation"}),
    "move": (["2", "--at", "6", "--variant", "birth-above", "@front"], {"front"}),
    "stabilize": (["1", "up", "@front"], {"front"}),
    "h1": (["@surgery"], {"presentation"}),
    "expand": (["@surgery"], {"presentation"}),
    "twist": (["1", "1", "@surgery"], {"presentation"}),
    "dunk": (["1", "2", "@surgery"], {"presentation"}),
    "blowdown": (["2", "@surgery"], {"presentation"}),
    "plan": (["@surgery"], {"presentation"}),
    "gamma": (["@surgery"], {"presentation", "invariants"}),
    "theta": (["@surgery"], {"presentation", "invariants"}),
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


def child_imports(cwd, *args):
    """Run python -X importtime with args in a fresh interpreter that
    compiles every source it imports.  Returns the exit code, the stderr
    lines that are not import times, and the steinkit modules imported."""
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
            name = line.rsplit("|", 1)[1].strip()
            if name.split(".")[0] == "steinkit":
                modules.add(name)
        else:
            other.append(line)
    return proc.returncode, other, modules


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
    assert modules == {"steinkit", "steinkit.numerics"} | {f"steinkit.{m}" for m in layers}


def test_importing_the_cli_imports_only_numerics(tmp_path):
    rc, err, modules = child_imports(tmp_path, "-c", "import steinkit.cli")
    assert (rc, err) == (0, [])
    assert modules == {"steinkit", "steinkit.cli", "steinkit.numerics"}
