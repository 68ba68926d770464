"""Self-test of the benchmark's checks: each must pass a correct output and
fail a corrupted one.

    python3 perfbench/selftest.py

Exits 0 when every corrupted output is caught and every intact one passes.
"""

from __future__ import annotations

import io
import json
import os
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import replace
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, ROOT)

from perfbench import layers, workloads  # noqa: E402
from perfbench.workloads import Op  # noqa: E402


def _run(op, tap, tracer):
    tap.take()
    out = workloads.run_op(op, tracer)
    out["tapped"] = tap.take()
    return out


def _raising_runs() -> list:
    """(label, problem or None) for whole benchmark runs of `verify` in which
    operations raise: each must still print a result, and it must read
    correct false with every raising operation counted as failed."""
    from perfbench import run

    original = workloads.run_op
    outcomes = []
    for label, raises in (("every operation raises", lambda op: True),
                          ("eigenvector operations raise", lambda op: op.kind == "eigvec")):
        raised = []

        def run_op(op, tr, raises=raises, raised=raised):
            if raises(op):
                raised.append(op)
                raise RuntimeError("injected failure")
            return original(op, tr)

        out, err = io.StringIO(), io.StringIO()
        workloads.run_op = run_op
        try:
            with redirect_stdout(out), redirect_stderr(err):
                run.main(["--workload", "verify", "--seed", "1", "--seconds", "0.5",
                          "--trace", "0"])
        finally:
            workloads.run_op = original
        lines = out.getvalue().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        problem = None
        if not lines:
            problem = "no result printed"
        elif result["correct"] is not False:
            problem = "result reads correct"
        elif not raised or result["failed"] != len(raised):
            problem = f"{result['failed']} failed for {len(raised)} raising operations"
        outcomes.append((f"run, {label}", problem))
    return outcomes


def main() -> int:
    rng = random.Random("selftest")
    tap = layers.ResidueTap()
    tracer = layers.Tracer(False)
    from twodiag import doubles
    from twodiag.doubles import DoubleCase
    from twodiag.matrices import MatrixWithSpectrum, Spectrum

    cases = []

    # verify: a sign-flipped sextet and a truncated residue list
    for case in ("DualHahnI", "HahnIII", "RacahII"):
        op = Op("pairs", case, 5, workloads.draw_family(rng, workloads.family_of(case), 5),
                flip="b")
        good = _run(op, tap, tracer)
        cs = doubles.coefficients(DoubleCase(case), op.params).flipped("a")
        bad = {"worst": doubles.pair_grid_max_residue(cs), "tapped": tap.take()}
        cases.append((f"verify pairs {case}", op, good, bad))
    op = Op("requirements", "HahnII", 6, workloads.draw_family(rng, "hahn", 6))
    good = _run(op, tap, tracer)
    cases.append(("verify requirements, truncated residues", op, good,
                  {**good, "tapped": good["tapped"][:-1]}))
    op = Op("christoffel", "DualHahnII", 6, workloads.draw_family(rng, "dual_hahn", 6))
    good = _run(op, tap, tracer)
    cases.append(("verify christoffel, truncated residues", op, good,
                  {**good, "residues": good["residues"][:-1]}))

    # closed-forms: a perturbed eigenvalue and a corrupted exact text
    sel = "nonsym:DualHahnIII"
    op = Op("gallery", sel, 10, workloads.draw_gallery(rng, sel, 10))
    good = _run(op, tap, tracer)
    m = good["bundle"]
    entries = list(m.spectrum.entries)
    entries[-1] = replace(entries[-1], radicand=entries[-1].radicand + Fraction(1, 10**6))
    entries[0] = replace(entries[0], radicand=entries[-1].radicand)
    moved = MatrixWithSpectrum(m.label, m.matrix, Spectrum(tuple(entries)))
    cases.append(("closed-forms gallery, perturbed eigenvalue", op, good,
                  {**good, "bundle": moved}))
    cases.append(("closed-forms gallery, corrupted exact text", op, good,
                  {**good, "exact": good["exact"].replace("1/", "2/", 1)}))
    op = Op("eigvec", "HahnII", 8, workloads.draw_family(rng, "hahn", 8))
    good = _run(op, tap, tracer)
    u = good["u"]
    rows = [list(r) for r in u.entries]
    rows[3][4] = replace(rows[3][4], coef=rows[3][4].coef * (1 + Fraction(1, 10**6)))
    cases.append(("closed-forms eigvec, perturbed U entry", op, good,
                  {**good, "u": replace(u, entries=tuple(tuple(r) for r in rows))}))

    # solve: a perturbed eigenvalue, values only and with vectors
    for sel, vectors in (("kac", False), ("double:RacahI", False), ("double:HahnI", True)):
        N = workloads.gallery_n(sel, 60)
        op = Op("solve", sel, N, workloads.draw_gallery(rng, sel, N), vectors=vectors)
        good = _run(op, tap, tracer)
        result = good["result"]
        values = result.values.copy()
        values[len(values) // 3] += 1e-9 * max(abs(v) for v in values)
        cases.append((f"solve {sel}{' vectors' if vectors else ''}, perturbed eigenvalue", op,
                      good, {**good, "result": replace(result, values=values)}))

    tap.restore()
    failures = 0
    for label, op, good, bad in cases:
        intact, _ = workloads.check_op(op, good)
        corrupted, _ = workloads.check_op(op, bad)
        ok = not intact and bool(corrupted)
        failures += not ok
        detail = corrupted[0] if corrupted else "corruption not caught"
        if intact:
            detail = f"intact output rejected: {intact[0]}"
        print(f"{'PASS' if ok else 'FAIL'} {label}: {detail}")
    for label, problem in _raising_runs():
        failures += problem is not None
        print(f"{'FAIL' if problem else 'PASS'} {label}: {problem or 'reads correct false'}")
        cases.append(label)
    print(f"{len(cases) - failures}/{len(cases)} self-checks pass")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
