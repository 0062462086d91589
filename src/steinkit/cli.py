"""Command line front end.

Every command reads files or flags, calls into the computation modules,
and writes a deterministic line-oriented report (or, for the rewriting
commands, the transformed file itself) to stdout.  Exit codes: 0 for
success including UNKNOWN decisions, 1 for usage errors, 2 for invalid
input, 3 for an internal failure.  Rationals print as p/q with unit
denominators elided, infinity as inf.  Negative or fractional values on the command line need either
a leading "--" separator or the --flag=value spelling.
"""

from __future__ import annotations

import argparse
import os
import sys

# Each verb imports the modules it runs inside its cmd_* function, so a
# call loads and compiles only those; main itself needs the scalars.
from .rational import InternalError, parse_int, parse_rational


class UsageError(Exception):
    pass


def _bool(b: bool) -> str:
    return "true" if b else "false"


def _read(path: str) -> str:
    """The text of a FRONT or SURGERY file, for its verb's parser."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc.strerror}") from exc


def _rational(text: str):
    try:
        return parse_rational(text)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc


# ---------------------------------------------------------------------------
# front commands


def cmd_stats(args) -> list[str]:
    from .diagram import component_stats, parse_front

    d = parse_front(_read(args.file))
    out = []
    for s in component_stats(d):
        out += [
            f"component: {s.component}",
            f"tb: {s.tb}",
            f"r: {s.rot}",
            f"w: {s.writhe}",
            f"lambda: {s.left_cusps}",
            f"passes: {sum(s.passes)}",
        ]
    return out


def cmd_check_stein(args) -> list[str]:
    from .diagram import check_stein_form, parse_front

    rep = check_stein_form(parse_front(_read(args.file)))
    out = [f"ok: {_bool(rep.ok)}"]
    out += [f"problem: {p}" for p in rep.problems]
    return out


def cmd_surger(args) -> str:
    from .diagram import parse_front, surger_handles
    from .surgery import serialize_surgery

    return serialize_surgery(surger_handles(parse_front(_read(args.file))))


def cmd_move(args) -> str:
    from .front import apply_move, parse_front, serialize_front

    d = parse_front(_read(args.file))
    return serialize_front(apply_move(d, args.n, at=args.at, variant=args.variant, handle=args.handle))


def cmd_stabilize(args) -> str:
    from .front import parse_front, serialize_front, stabilize

    d = parse_front(_read(args.file))
    return serialize_front(stabilize(d, args.component, args.direction, at_column=args.at))


# ---------------------------------------------------------------------------
# presentation commands


def cmd_h1(args) -> list[str]:
    from .surgery import h1, parse_surgery

    return [f"h1: {h1(parse_surgery(_read(args.file)))}"]


def cmd_expand(args) -> str:
    from .presentation import expand_rational, parse_surgery, serialize_surgery

    return serialize_surgery(expand_rational(parse_surgery(_read(args.file))))


def cmd_twist(args) -> str:
    from .presentation import parse_surgery, rolfsen_twist, serialize_surgery

    p = parse_surgery(_read(args.file))
    return serialize_surgery(rolfsen_twist(p, args.i, args.m))


def cmd_dunk(args) -> str:
    from .presentation import parse_surgery, serialize_surgery, slam_dunk, slam_dunk_inverse

    p = parse_surgery(_read(args.file))
    if args.inverse is not None:
        if args.j is not None:
            raise UsageError("dunk takes either <j> or --inverse, not both")
        return serialize_surgery(slam_dunk_inverse(p, args.i, _rational(args.inverse)))
    if args.j is None:
        raise UsageError("dunk needs a meridian index <j> or --inverse <coeff>")
    return serialize_surgery(slam_dunk(p, args.i, args.j))


def cmd_blowdown(args) -> str:
    from .presentation import blow_down, parse_surgery, serialize_surgery

    return serialize_surgery(blow_down(parse_surgery(_read(args.file)), args.i))


def cmd_plan(args) -> list[str]:
    from .presentation import parse_surgery, stein_plan

    plan = stein_plan(parse_surgery(_read(args.file)))
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


MAX_LISTED_SUBLINKS = 1 << 12  # gamma lists no more sublinks than this


def _gamma_lines(x: SteinPresentation, s: SpinStructure) -> list[str]:
    from .invariants import gamma

    members = s.members()
    cls = gamma(x, s)
    coords = "(" + ",".join(str(c) for c in cls.coords) + ")"
    return [
        "sublink: " + (" ".join(str(i) for i in members) if members else "empty"),
        f"gamma: {coords} mod im(Q*)",
    ]


def cmd_gamma(args) -> list[str]:
    from .invariants import (
        SpinStructure,
        SteinPresentation,
        characteristic_sublink_count,
        characteristic_sublinks,
    )
    from .surgery import parse_surgery

    x = SteinPresentation.from_presentation(parse_surgery(_read(args.file)))
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
    count = characteristic_sublink_count(x)
    if count > MAX_LISTED_SUBLINKS:
        raise ValueError(f"{count} characteristic sublinks, more than the "
                         f"{MAX_LISTED_SUBLINKS} that gamma lists; pick one with --sublink")
    out = []
    for s in characteristic_sublinks(x):
        out += _gamma_lines(x, s)
    return out


def cmd_theta(args) -> list[str]:
    from .invariants import InvariantError, SteinPresentation, theta, theta_f0_and_d
    from .surgery import parse_surgery

    x = SteinPresentation.from_presentation(parse_surgery(_read(args.file)))
    try:
        return [f"theta: {theta(x)}"]
    except InvariantError:
        d, residue = theta_f0_and_d(x)
        return [f"d: {d}", f"theta: {residue} mod {2 * d}"]


# ---------------------------------------------------------------------------
# family commands


def _decision_lines(data: SeifertData, search_bound: int) -> list[str]:
    from .families import decide_seifert, seifert_normalize

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
    from .families import SeifertData

    orientable, genus = _parse_base(args.base)
    coeffs = [_rational(c) for c in args.coeff or []]
    data = SeifertData(orientable=orientable, genus=genus, coefficients=coeffs)
    return [f"base: {args.base}"] + _decision_lines(data, args.search_bound)


def cmd_brieskorn(args) -> list[str]:
    from .families import brieskorn

    ori = 1 if args.orientation == "+" else -1
    data = brieskorn(args.p1, args.p2, args.p3, ori)
    out = [f"coeff: {r}" for r in data.coefficients]
    return out + _decision_lines(data, args.search_bound)


def cmd_borromean(args) -> list[str]:
    from .families import BorromeanCoeffs, decide_borromean, twist_knot_surgery, two_component_surgery

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


def build_parser(argv=()) -> argparse.ArgumentParser:
    """The command line parser.  When argv starts with a verb, only that
    verb's subparser is built; naming every verb in the metavar keeps the
    usage and the messages those of the full parser."""
    file, num = ("file", {}), {"type": _arg_int}
    search_bound = ("--search-bound", {"type": _arg_int, "default": 100})
    verbs = {  # verb: (command, help, add_argument calls as (name, keywords))
        "stats": (cmd_stats, "tb, rotation, writhe, cusp and handle-pass counts per component", [file]),
        "check-stein": (cmd_check_stein, "verify every coefficient is tb - 1", [file]),
        "surger": (cmd_surger, "trade 1-handles for 0-framed unknots", [file]),
        "move": (cmd_move, "apply one of the local moves 1-6",
                 [("n", num), file, ("--at", num), ("--variant", {}), ("--handle", num)]),
        "stabilize": (cmd_stabilize, "insert a zig-zag on a component",
                      [("component", num), ("direction", {"choices": ("up", "down")}), file,
                       ("--at", num)]),
        "h1": (cmd_h1, "first homology of the presented manifold", [file]),
        "expand": (cmd_expand, "replace rational coefficients by integer chains", [file]),
        "twist": (cmd_twist, "Rolfsen twist on an unknotted component",
                  [("i", num), ("m", num), file]),
        "dunk": (cmd_dunk, "slam-dunk a meridian, or --inverse to grow one",
                 [("i", num), ("j", {**num, "nargs": "?"}), file,
                  ("--inverse", {"metavar": "COEFF"})]),
        "blowdown": (cmd_blowdown, "blow down a (+/-)1-framed unknot", [("i", num), file]),
        "plan": (cmd_plan, "Stein realization plan (needs tb data)", [file]),
        "gamma": (cmd_gamma, "spin-structure invariant of the boundary",
                  [file, ("--sublink", {"metavar": "MEMBERS"})]),
        "theta": (cmd_theta, "squared-Chern invariant of the plane field", [file]),
        "seifert": (cmd_seifert, "Seifert fibered realizability decider",
                    [("--base", {"default": "o0"}),
                     ("--coeff", {"action": "append", "default": [], "metavar": "P/Q"}),
                     search_bound]),
        "brieskorn": (cmd_brieskorn, "Brieskorn sphere data and decision",
                      [("p1", num), ("p2", num), ("p3", num),
                       ("--orientation", {"choices": ("+", "-"), "default": "+"}), search_bound]),
        "borromean": (cmd_borromean, "Borromean surgery decider",
                      [("coeffs", {"nargs": "*", "metavar": "R"}),
                       ("--twist-knot", {"metavar": '"L M R"'}),
                       ("--two-component", {"metavar": '"M R1 R2"'})]),
    }
    one = argv[0] if argv and argv[0] in verbs else None
    top = argparse.ArgumentParser(prog="steinkit", description=__doc__)
    metavar = None if one is None else "{" + ",".join(verbs) + "}"
    sub = top.add_subparsers(dest="verb", required=True, metavar=metavar)
    for name, (func, help_text, arguments) in verbs.items():
        if one in (None, name):
            p = sub.add_parser(name, help=help_text)
            p.set_defaults(func=func)
            for arg, kwargs in arguments:
                p.add_argument(arg, **kwargs)
    return top


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = build_parser(argv).parse_args(argv)
    except SystemExit as exc:
        # argparse uses 2 for bad usage; that slot is reserved for bad input
        return 0 if exc.code == 0 else 1
    try:
        result = args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except InternalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    text = result if isinstance(result, str) else "".join(f"{line}\n" for line in result)
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout, which fails no part of this call.  Point
        # stdout at devnull so the flush at interpreter exit fails no more.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0


if __name__ == "__main__":
    sys.exit(main())
