"""Command line front end.

Every command reads files or flags, calls into the computation modules,
and writes a deterministic line-oriented report (or, for the rewriting
commands, the transformed file itself) to stdout.  Exit codes: 0 for
success including UNKNOWN decisions, 1 for usage errors, 2 for invalid
input.  Rationals print as p/q with unit denominators elided, infinity
as inf.  Negative or fractional values on the command line need either
a leading "--" separator or the --flag=value spelling.
"""

import argparse
import sys

from .families import (
    BorromeanCoeffs,
    SeifertData,
    decide_borromean,
    decide_seifert,
    brieskorn,
    seifert_normalize,
    twist_knot_surgery,
    two_component_surgery,
)
from .front import (
    apply_move,
    check_stein_form,
    component_stats,
    parity_lint,
    parse_front,
    serialize_front,
    stabilize,
    surger_handles,
)
from .invariants import (
    InvariantError,
    SpinStructure,
    SteinPresentation,
    characteristic_sublinks,
    gamma,
    theta,
    theta_f0_and_d,
)
from .numerics import parse_int, parse_rational
from .presentation import (
    blow_down,
    expand_rational,
    h1,
    parse_surgery,
    rolfsen_twist,
    serialize_surgery,
    slam_dunk,
    slam_dunk_inverse,
    stein_plan,
)


class UsageError(Exception):
    pass


def _bool(b: bool) -> str:
    return "true" if b else "false"


def parse_input(path: str, kind: str):
    """Read and parse a FRONT or SURGERY file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}") from exc
    if kind == "front":
        return parse_front(text)
    if kind == "surgery":
        return parse_surgery(text)
    raise ValueError(f"unknown input kind {kind!r}")


def _rational(text: str):
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


# ---------------------------------------------------------------------------
# front commands


def cmd_stats(args) -> list[str]:
    d = parse_input(args.file, "front")
    out = []
    for s in component_stats(d):
        out += [
            f"component: {s.component}",
            f"tb: {s.tb}",
            f"r: {s.rot}",
            f"w: {s.writhe}",
            f"lambda: {s.left_cusps}",
        ]
    return out


def cmd_lint(args) -> list[str]:
    d = parse_input(args.file, "front")
    reports = parity_lint(d)
    out = []
    for rep in reports:
        out += [
            f"component: {rep.component}",
            f"tb: {rep.tb}",
            f"r: {rep.rot}",
            f"passes: {rep.total_passes}",
            f"parity: {'ok' if rep.ok else 'violated'}",
        ]
    out.append(f"ok: {_bool(all(rep.ok for rep in reports))}")
    return out


def cmd_check_stein(args) -> list[str]:
    rep = check_stein_form(parse_input(args.file, "front"))
    out = [f"ok: {_bool(rep.ok)}"]
    out += [f"problem: {p}" for p in rep.problems]
    return out


def cmd_surger(args) -> str:
    return serialize_surgery(surger_handles(parse_input(args.file, "front")))


def cmd_move(args) -> str:
    d = parse_input(args.file, "front")
    return serialize_front(apply_move(d, args.n, at=args.at, variant=args.variant, handle=args.handle))


def cmd_stabilize(args) -> str:
    d = parse_input(args.file, "front")
    return serialize_front(stabilize(d, args.component, args.direction, at_column=args.at))


# ---------------------------------------------------------------------------
# presentation commands


def cmd_h1(args) -> list[str]:
    return [f"h1: {h1(parse_input(args.file, 'surgery'))}"]


def cmd_expand(args) -> str:
    return serialize_surgery(expand_rational(parse_input(args.file, "surgery")))


def cmd_twist(args) -> str:
    p = parse_input(args.file, "surgery")
    return serialize_surgery(rolfsen_twist(p, args.i, args.m))


def cmd_dunk(args) -> str:
    p = parse_input(args.file, "surgery")
    if args.inverse is not None:
        if args.j is not None:
            raise UsageError("dunk takes either <j> or --inverse, not both")
        return serialize_surgery(slam_dunk_inverse(p, args.i, _rational(args.inverse)))
    if args.j is None:
        raise UsageError("dunk needs a meridian index <j> or --inverse <coeff>")
    return serialize_surgery(slam_dunk(p, args.i, args.j))


def cmd_blowdown(args) -> str:
    return serialize_surgery(blow_down(parse_input(args.file, "surgery"), args.i))


def cmd_plan(args) -> list[str]:
    plan = stein_plan(parse_input(args.file, "surgery"))
    out = [f"ok: {_bool(plan.ok)}"]
    for comp, msg in plan.violations:
        out.append(f"violation: component {comp} {msg}")
    for row in plan.rows:
        out += [
            f"component: {row.component}",
            "chain: " + " ".join(str(a) for a in row.chain),
            "zigzags: " + " ".join(str(z) for z in row.zigzags),
            "tb-targets: " + " ".join(str(t) for t in row.tb_targets),
            "rot-targets: " + " ".join("-" if r is None else str(r) for r in row.rot_targets),
        ]
    return out


# ---------------------------------------------------------------------------
# invariant commands


def _gamma_lines(x: SteinPresentation, s: SpinStructure) -> list[str]:
    members = s.members()
    cls = gamma(x, s)
    coords = "(" + ",".join(str(c) for c in cls.coords) + ")"
    return [
        "sublink: " + (" ".join(str(i) for i in members) if members else "empty"),
        f"gamma: {coords} mod im(Q*)",
    ]


def cmd_gamma(args) -> list[str]:
    x = SteinPresentation.from_presentation(parse_input(args.file, "surgery"))
    if args.sublink is not None:
        tokens = args.sublink.split()
        if tokens == ["empty"]:  # how _gamma_lines prints the empty sublink
            tokens = []
        members = set()
        for token in tokens:
            try:
                members.add(parse_int(token))
            except ValueError as exc:
                raise UsageError(f"bad sublink member {token!r}") from exc
        size = x.m + x.n1
        bad = [i for i in sorted(members) if not 1 <= i <= size]
        if bad:
            raise UsageError(f"sublink members {bad} out of range 1..{size}")
        bits = tuple(1 if i + 1 in members else 0 for i in range(size))
        return _gamma_lines(x, SpinStructure(sublink=bits))
    out = []
    for s in characteristic_sublinks(x):
        out += _gamma_lines(x, s)
    return out


def cmd_theta(args) -> list[str]:
    x = SteinPresentation.from_presentation(parse_input(args.file, "surgery"))
    try:
        return [f"theta: {theta(x)}"]
    except InvariantError:
        d, residue = theta_f0_and_d(x)
        return [f"d: {d}", f"theta: {residue} mod {2 * d}"]


# ---------------------------------------------------------------------------
# family commands


def _decision_lines(data: SeifertData, search_bound: int) -> list[str]:
    norm = seifert_normalize(data)
    rprime = " ".join(str(r) for r in norm.rprime)
    out = [
        f"e: {norm.e}",
        f"e0: {norm.e0}",
        f"rprime: {rprime if rprime else 'none'}",
        f"k0: {norm.k0}",
    ]
    dec = decide_seifert(data, search_bound)
    verdict = dec.verdict if dec.reason is None else f"{dec.verdict}({dec.reason})"
    out.append(f"decision: {verdict}")
    out.append(f"detail: {dec.detail}")
    if dec.pair is not None:
        out.append(f"pair: ({dec.pair[0]}, {dec.pair[1]})")
    if dec.n_result is not None:
        res = dec.n_result
        if res.kind == "sentinel":
            out.append("n: sentinel")
        elif res.infinite:
            out.append("n: inf")
        else:
            out.append(f"n: {res.value}")
        if res.witness is not None:
            out.append(f"witness: {res.witness}")
    return out


def _parse_base(text: str):
    kind, genus = text[:1], text[1:]
    if kind in ("o", "n") and not genus.startswith("-"):
        try:
            return kind == "o", parse_int(genus)
        except ValueError:
            pass
    raise UsageError(f"base must look like o0 or n2, got {text!r}")


def cmd_seifert(args) -> list[str]:
    orientable, genus = _parse_base(args.base)
    coeffs = [_rational(c) for c in args.coeff or []]
    data = SeifertData(orientable=orientable, genus=genus, coefficients=coeffs)
    return [f"base: {args.base}"] + _decision_lines(data, args.search_bound)


def cmd_brieskorn(args) -> list[str]:
    ori = 1 if args.orientation == "+" else -1
    data = brieskorn(args.p1, args.p2, args.p3, ori)
    out = [f"coeff: {r}" for r in data.coefficients]
    return out + _decision_lines(data, args.search_bound)


def cmd_borromean(args) -> list[str]:
    sources = [
        args.coeffs if args.coeffs else None,
        args.twist_knot,
        args.two_component,
    ]
    if sum(s is not None for s in sources) != 1:
        raise UsageError(
            "borromean needs exactly one of: three coefficients, --twist-knot, --two-component"
        )
    if args.coeffs:
        if len(args.coeffs) != 3:
            raise UsageError(f"borromean needs three coefficients, got {len(args.coeffs)}")
        coeffs = BorromeanCoeffs(*(_rational(c) for c in args.coeffs))
        decision = decide_borromean(coeffs)
    elif args.twist_knot is not None:
        fields = args.twist_knot.split()
        if len(fields) != 3:
            raise UsageError('--twist-knot needs "L M R"')
        coeffs, decision = twist_knot_surgery(
            _int(fields[0]), _int(fields[1]), _rational(fields[2])
        )
    else:
        fields = args.two_component.split()
        if len(fields) != 3:
            raise UsageError('--two-component needs "M R1 R2"')
        coeffs, decision = two_component_surgery(
            _int(fields[0]), _rational(fields[1]), _rational(fields[2])
        )
    return [f"coeff: {r}" for r in coeffs.as_tuple()] + [
        f"decision: {decision.verdict}",
        f"inA0: {_bool(decision.in_a0)}",
        f"inA2: {_bool(decision.in_a2)}",
        f"inA3: {_bool(decision.in_a3)}",
    ]


def _int(text: str) -> int:
    try:
        return parse_int(text)
    except ValueError as exc:
        raise UsageError(f"expected an integer, got {text!r}") from exc


def _arg_int(text: str) -> int:
    """argparse type for integer arguments, with argparse's own message."""
    try:
        return parse_int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


# ---------------------------------------------------------------------------
# wiring


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="steinkit", description=__doc__)
    sub = top.add_subparsers(dest="verb", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        return p

    p = add("stats", cmd_stats, help="tb, rotation, writhe and cusp counts per component")
    p.add_argument("file")

    p = add("lint", cmd_lint, help="check the passage parity of a front")
    p.add_argument("file")

    p = add("check-stein", cmd_check_stein, help="verify every coefficient is tb - 1")
    p.add_argument("file")

    p = add("surger", cmd_surger, help="trade 1-handles for 0-framed unknots")
    p.add_argument("file")

    p = add("move", cmd_move, help="apply one of the local moves 1-6")
    p.add_argument("n", type=_arg_int)
    p.add_argument("file")
    p.add_argument("--at", type=_arg_int, default=None)
    p.add_argument("--variant", default=None)
    p.add_argument("--handle", type=_arg_int, default=None)

    p = add("stabilize", cmd_stabilize, help="insert a zig-zag on a component")
    p.add_argument("component", type=_arg_int)
    p.add_argument("direction", choices=("up", "down"))
    p.add_argument("file")
    p.add_argument("--at", type=_arg_int, default=None)

    p = add("h1", cmd_h1, help="first homology of the presented manifold")
    p.add_argument("file")

    p = add("expand", cmd_expand, help="replace rational coefficients by integer chains")
    p.add_argument("file")

    p = add("twist", cmd_twist, help="Rolfsen twist on an unknotted component")
    p.add_argument("i", type=_arg_int)
    p.add_argument("m", type=_arg_int)
    p.add_argument("file")

    p = add("dunk", cmd_dunk, help="slam-dunk a meridian, or --inverse to grow one")
    p.add_argument("i", type=_arg_int)
    p.add_argument("j", type=_arg_int, nargs="?", default=None)
    p.add_argument("file")
    p.add_argument("--inverse", default=None, metavar="COEFF")

    p = add("blowdown", cmd_blowdown, help="blow down a (+/-)1-framed unknot")
    p.add_argument("i", type=_arg_int)
    p.add_argument("file")

    p = add("plan", cmd_plan, help="Stein realization plan (needs tb data)")
    p.add_argument("file")

    p = add("gamma", cmd_gamma, help="spin-structure invariant of the boundary")
    p.add_argument("file")
    p.add_argument("--sublink", default=None, metavar="MEMBERS")

    p = add("theta", cmd_theta, help="squared-Chern invariant of the plane field")
    p.add_argument("file")

    p = add("seifert", cmd_seifert, help="Seifert fibered realizability decider")
    p.add_argument("--base", default="o0")
    p.add_argument("--coeff", action="append", default=[], metavar="P/Q")
    p.add_argument("--search-bound", type=_arg_int, default=100)

    p = add("brieskorn", cmd_brieskorn, help="Brieskorn sphere data and decision")
    p.add_argument("p1", type=_arg_int)
    p.add_argument("p2", type=_arg_int)
    p.add_argument("p3", type=_arg_int)
    p.add_argument("--orientation", choices=("+", "-"), default="+")
    p.add_argument("--search-bound", type=_arg_int, default=100)

    p = add("borromean", cmd_borromean, help="Borromean surgery decider")
    p.add_argument("coeffs", nargs="*", metavar="R")
    p.add_argument("--twist-knot", default=None, metavar='"L M R"')
    p.add_argument("--two-component", default=None, metavar='"M R1 R2"')

    return top


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses 2 for bad usage; that slot is reserved for bad input
        return 0 if exc.code == 0 else 1
    try:
        result = args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if isinstance(result, str):
        sys.stdout.write(result)
    else:
        for line in result:
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
