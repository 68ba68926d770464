"""Command-line front end.

Subcommands: gen (emit a matrix in an interchange format), spectrum (print
a closed-form spectrum), verify (run the exact verification suites), bench
(time the eigensolver against closed forms), poly (tabulate polynomial
values exactly).
"""

from __future__ import annotations

import argparse
import re
import sys
from dataclasses import fields
from fractions import Fraction
from typing import Dict, List, Optional

from .eigsolve import FAMILY_CHOICES, benchmark, build_gallery_matrix, gallery_params
from .exact import DenominatorPole, NonTerminatingSeries
from .families import (
    DualHahnParams,
    HahnParams,
    KrawtchoukParams,
    RacahParams,
    family_eval,
    family_norm,
    family_weight,
)
from .matio import exact_text, json_text, matrix_market_text
from .matrices import TwoDiagonal
from .verify import SUITES, run_suites

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")


def rational_arg(text: str) -> Fraction:
    if not _RATIONAL_RE.match(text):
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a rational; write an integer or 'p/q' with q > 0"
        )
    return Fraction(text)


_PARAM_FLAGS = ("--alpha", "--beta", "--gamma", "--delta", "--p")


def _attach_negative_values(argv: List[str]) -> List[str]:
    """Write `--gamma -5/2` as `--gamma=-5/2`: argparse takes a separate
    token that starts with '-' and is not a plain negative number for an
    option, and would report the flag as missing its value."""
    out: List[str] = []
    for tok in argv:
        if out and out[-1] in _PARAM_FLAGS and tok.startswith("-") and _RATIONAL_RE.match(tok):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def _add_param_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=rational_arg, help="Hahn/Racah alpha")
    p.add_argument("--beta", type=rational_arg, help="Hahn/Racah beta")
    p.add_argument("--gamma", type=rational_arg, help="dual Hahn/Racah gamma")
    p.add_argument("--delta", type=rational_arg, help="dual Hahn/Racah delta")


def _collect_params(args) -> Dict[str, Fraction]:
    out = {}
    for name in ("alpha", "beta", "gamma", "delta"):
        v = getattr(args, name, None)
        if v is not None:
            out[name] = v
    return out


def _invocation(args) -> str:
    """The subcommand, selector, size and given parameters, for error lines."""
    words = [args.command, getattr(args, "family", None)]
    if getattr(args, "N", None) is not None:
        words.append(f"-N {args.N}")
    if getattr(args, "dims", ""):
        words.append(f"--dims {args.dims}")
    given = _collect_params(args)
    text = " ".join(w for w in words if w)
    return text + (" with " + ", ".join(f"{k}={v}" for k, v in given.items()) if given else "")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twodiag",
        description="Two-diagonal eigenvalue test matrices, their polynomial "
                    "pairs, and exact verification suites.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="emit a matrix")
    g.add_argument("family", choices=FAMILY_CHOICES)
    g.add_argument("-N", type=int, required=True, help="family size parameter")
    _add_param_flags(g)
    g.add_argument("--format", choices=("mm", "exact", "json"), default="mm")
    g.add_argument("-o", "--output", help="output file (default stdout)")

    s = sub.add_parser("spectrum", help="print a closed-form spectrum")
    s.add_argument("family", choices=FAMILY_CHOICES)
    s.add_argument("-N", type=int, required=True)
    _add_param_flags(s)

    v = sub.add_parser("verify", help="run exact verification suites")
    v.add_argument("--suite", default="all", choices=SUITES + ("all",))
    v.add_argument("--max-N", type=int, default=6, dest="max_n")
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--draws", type=int, default=3, help="parameter draws per case")
    v.add_argument("-q", "--quiet", action="store_true", help="only print failures and summary")

    b = sub.add_parser("bench", help="benchmark the eigensolver against closed forms",
                       description="One JSON line per solve; `sweeps` counts bisection "
                                   "passes, with or without --vectors.")
    b.add_argument("family", choices=FAMILY_CHOICES)
    b.add_argument("--dims", required=True, help="comma-separated matrix dimensions")
    b.add_argument("--reps", type=int, default=1)
    b.add_argument("--vectors", action="store_true", help="also compute eigenvectors")
    _add_param_flags(b)
    b.add_argument("-o", "--output", help="output file (default stdout)")

    p = sub.add_parser("poly", help="tabulate polynomial values exactly")
    p.add_argument("family", choices=("hahn", "dual-hahn", "racah", "krawtchouk"))
    p.add_argument("-n", type=int, required=True, help="degree")
    p.add_argument("-N", type=int, help="size parameter (not needed for racah)")
    _add_param_flags(p)
    p.add_argument("--p", type=rational_arg, help="Krawtchouk success parameter")
    p.add_argument("--minus-n", default="alpha", choices=("alpha", "beta_delta", "gamma"),
                   dest="minus_n", help="which Racah denominator parameter is -N")
    p.add_argument("--x-from", type=int, default=0)
    p.add_argument("--x-to", type=int, default=None)
    p.add_argument("--weights", action="store_true", help="add weight and norm columns")
    return parser


def _open_out(path: Optional[str]):
    return open(path, "w") if path else sys.stdout


def cmd_gen(args) -> int:
    if args.N < 1:
        raise ValueError("-N must be >= 1")
    bundle = build_gallery_matrix(args.family, args.N, _collect_params(args))
    if args.format == "exact" and not isinstance(bundle.matrix, TwoDiagonal):
        raise ValueError("exact format needs rational entries; "
                         f"use the nonsym form instead of {args.family}")
    if args.format == "mm":
        text = matrix_market_text(bundle.matrix)
    elif args.format == "exact":
        text = exact_text(bundle.matrix)
    else:
        used = gallery_params(args.family, args.N, _collect_params(args))
        text = json_text(bundle.label, {k: str(v) for k, v in used.items()}, bundle.matrix)
    out = _open_out(args.output)
    out.write(text)
    if out is not sys.stdout:
        out.close()
    return 0


def cmd_spectrum(args) -> int:
    if args.N < 1:
        raise ValueError("-N must be >= 1")
    bundle = build_gallery_matrix(args.family, args.N, _collect_params(args))
    for e in bundle.spectrum.entries:
        print(f"{e.sign:+d} {e.radicand} {float(e):.17g}")
    return 0


def cmd_verify(args) -> int:
    if args.max_n < 2:
        raise ValueError("--max-N must be >= 2")
    if args.draws < 1:
        raise ValueError(f"--draws must be >= 1, got {args.draws}")
    names = SUITES if args.suite == "all" else (args.suite,)
    outcomes = run_suites(names, args.max_n, args.seed, args.draws)
    failures = [o for o in outcomes if not o.ok]
    for o in outcomes:
        if o.ok and args.quiet:
            continue
        status = "PASS" if o.ok else "FAIL"
        detail = f"  ({o.detail})" if o.detail else ""
        print(f"{status} {o.label}{detail}")
    print(f"{'PASS' if not failures else 'FAIL'}: "
          f"{len(outcomes) - len(failures)}/{len(outcomes)} checks "
          f"(suites: {', '.join(names)}, max-N {args.max_n}, seed {args.seed}, "
          f"draws {args.draws})")
    return 1 if failures else 0


def cmd_bench(args) -> int:
    if args.reps < 1:
        raise ValueError(f"--reps must be >= 1, got {args.reps}")
    if not args.dims.strip():
        return 0
    try:
        dims = [int(t) for t in args.dims.split(",")]
    except ValueError:
        raise ValueError(f"--dims needs comma-separated integers, got {args.dims!r}") from None
    reports = benchmark(args.family, dims, repetitions=args.reps,
                        params=_collect_params(args) or None,
                        want_vectors=args.vectors)
    out = _open_out(args.output)
    for rep in reports:
        out.write(rep.to_json_line() + "\n")
    if out is not sys.stdout:
        out.close()
    return 0


def _poly_params(args):
    need = lambda name: getattr(args, name) is not None
    if args.family == "hahn":
        if not (need("alpha") and need("beta") and need("N")):
            raise ValueError("hahn needs --alpha, --beta and -N")
        return HahnParams(args.alpha, args.beta, args.N)
    if args.family == "dual-hahn":
        if not (need("gamma") and need("delta") and need("N")):
            raise ValueError("dual-hahn needs --gamma, --delta and -N")
        return DualHahnParams(args.gamma, args.delta, args.N)
    if args.family == "racah":
        if not all(need(k) for k in ("alpha", "beta", "gamma", "delta")):
            raise ValueError("racah needs --alpha, --beta, --gamma, --delta")
        return RacahParams(args.alpha, args.beta, args.gamma, args.delta, args.minus_n)
    if not (need("p") and need("N")):
        raise ValueError("krawtchouk needs --p and -N")
    if args.weights:
        raise ValueError("poly krawtchouk has no weight or norm column; drop --weights")
    return KrawtchoukParams(args.p, args.N)


def cmd_poly(args) -> int:
    """Check the degree and the x range, compute the whole table, then
    print it, so that an error leaves no partial table on stdout."""
    params = _poly_params(args)
    N = params.N
    xs = range(args.x_from, (args.x_to if args.x_to is not None else N) + 1)
    if not 0 <= args.n <= N:
        raise ValueError(f"degree n={args.n} outside 0..{N}")
    if not xs:
        raise ValueError(f"empty x range: --x-from {xs.start} is above --x-to {xs.stop - 1}")
    if args.weights and not (0 <= xs[0] and xs[-1] <= N):
        raise ValueError(f"--weights needs x within 0..{N}; got {xs[0]}..{xs[-1]}")
    lines = ["\t".join(["x", f"y_{args.n}(x)"] + ["weight(x)"] * args.weights)]
    try:
        for x in xs:
            row = [x, family_eval(params, args.n, x)]
            if args.weights:
                row.append(family_weight(params, x))
            lines.append("\t".join(map(str, row)))
        if args.weights:
            lines.append(f"norm h_{args.n} = {family_norm(params, args.n)}")
    except ZeroDivisionError as exc:
        used = ", ".join(f"{f.name}={getattr(params, f.name)}" for f in fields(params))
        what = (f"evaluation impossible: {exc}" if isinstance(exc, DenominatorPole)
                else "a denominator vanishes")
        raise ValueError(f"poly {args.family} -n {args.n} with {used}: {what}") from exc
    print("\n".join(lines))
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(_attach_negative_values(sys.argv[1:] if argv is None else argv))
    handlers = {
        "gen": cmd_gen,
        "spectrum": cmd_spectrum,
        "verify": cmd_verify,
        "bench": cmd_bench,
        "poly": cmd_poly,
    }
    # every input error exits 2; 1 is a failed verify
    try:
        return handlers[args.command](args)
    except (DenominatorPole, NonTerminatingSeries) as exc:
        print(f"error: evaluation impossible: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ZeroDivisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"error: {_invocation(args)}: a value is too large for a float ({exc})",
              file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
