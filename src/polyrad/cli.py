"""Command-line interface.

Subcommands:

- ``compute``: run the polytope algorithm on a family file;
- ``verify``: re-check a certificate against a family file;
- ``dataset``: materialize a built-in or random family as a family file;
- ``bench``: sweep seeded random families and report one row per run.

Exit codes: 0 for an exact (terminated) result, 2 when only two-sided
bounds were obtained, 3 when a search budget was exhausted, and 1 for
errors (bad files, inapplicable inputs, failed verification).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional, Sequence

import numpy as np

from . import __version__
from .certificates import (
    CertificateFormatError,
    deserialize,
    family_fingerprint,
    serialize,
    verify,
)
from .datasets import DatasetSpec, RANDOM_KINDS, build
from .engine import (
    ITERATION_CAPPED,
    MODE_L,
    MODE_P,
    MODE_R,
    TERMINATED,
    RunConfig,
    RunOutcome,
    run,
)
from .matrices import MatrixFamily, word_reading

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_BOUNDS = 2
EXIT_BUDGET = 3

CSV_HEADER = "seed,dim,mode,status,value_lo,value_hi,word,iters,vertices"

FAMILY_FILE_VERSION = 1


class FamilyFileError(ValueError):
    """Raised for malformed family files."""


def load_family(path: str) -> MatrixFamily:
    """Read a family file (JSON: version, dim, matrices, optional labels)."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise FamilyFileError("cannot read %s: %s" % (path, exc))
    except json.JSONDecodeError as exc:
        raise FamilyFileError("%s is not valid JSON: %s" % (path, exc))
    if not isinstance(raw, dict):
        raise FamilyFileError("family file must be a JSON object")
    for key in ("version", "dim", "matrices"):
        if key not in raw:
            raise FamilyFileError("family file is missing field %r" % key)
    if type(raw["version"]) is not int or raw["version"] != FAMILY_FILE_VERSION:
        raise FamilyFileError("unsupported family file version %r"
                              % (raw["version"],))
    try:
        family = MatrixFamily(raw["matrices"], raw.get("labels"))
    except (TypeError, ValueError) as exc:
        raise FamilyFileError("bad matrices in %s: %s" % (path, exc))
    if type(raw["dim"]) is not int or family.dim != raw["dim"]:
        raise FamilyFileError("declared dim %r does not match the matrices"
                              % (raw["dim"],))
    return family


def dump_family(family: MatrixFamily, stream) -> None:
    payload = {
        "version": FAMILY_FILE_VERSION,
        "dim": family.dim,
        "matrices": [[[float(x) for x in row] for row in M]
                     for M in family.matrices],
    }
    if family.labels is not None:
        payload["labels"] = list(family.labels)
    json.dump(payload, stream, indent=2)
    stream.write("\n")


def _format_word(word) -> str:
    """Product reading, left to right, dash-separated."""
    if word is None:
        return ""
    return "-".join(str(i) for i in word_reading(word))


def _sig(x: Optional[float], digits: int) -> str:
    if x is None:
        return ""
    if np.isinf(x):
        return "inf" if x > 0 else "-inf"
    return format(float(x), ".%dg" % digits)


def _engine_mode(mode: str, family: MatrixFamily) -> str:
    if mode == "lsr":
        return MODE_L
    return MODE_P if family.is_nonnegative() else MODE_R


def _cannot_write(path: str, exc: OSError) -> int:
    print("error: cannot write %s: %s" % (path, exc.strerror), file=sys.stderr)
    return EXIT_ERROR


def _exit_code(outcome: RunOutcome) -> int:
    if outcome.status == TERMINATED:
        return EXIT_BUDGET if outcome.budget_exhausted else EXIT_OK
    if outcome.status == ITERATION_CAPPED:
        return EXIT_BUDGET if outcome.budget_exhausted else EXIT_BOUNDS
    return EXIT_ERROR


def _outcome_row(outcome: RunOutcome, seed, dim: int, mode: str) -> str:
    lo, hi = (outcome.bounds if outcome.bounds is not None
              else (outcome.value, outcome.value))
    word = outcome.candidate.word if outcome.candidate is not None else None
    return ",".join([
        str(seed),
        str(dim),
        mode,
        outcome.status,
        _sig(lo, 17),
        _sig(hi, 17),
        _format_word(word),
        str(outcome.iterations),
        str(outcome.vertex_count),
    ])


def _print_outcome_text(outcome: RunOutcome, mode: str, stream) -> None:
    quantity = "LSR" if mode == "lsr" else "JSR"
    print("status: %s" % outcome.status, file=stream)
    if outcome.status == TERMINATED:
        print("%s = %s (exact)" % (quantity, _sig(outcome.value, 9)), file=stream)
    elif outcome.bounds is not None:
        print("%s in [%s, %s]" % (quantity, _sig(outcome.bounds[0], 9),
                                  _sig(outcome.bounds[1], 9)), file=stream)
    if outcome.candidate is not None:
        print("candidate product: %s (averaged radius %s)"
              % (_format_word(outcome.candidate.word),
                 _sig(outcome.candidate.rho_per_step, 9)), file=stream)
    print("iterations: %d, vertices: %d" % (outcome.iterations,
                                            outcome.vertex_count), file=stream)
    if outcome.t_N is not None:
        print("last membership extreme t_N = %s" % _sig(outcome.t_N, 9),
              file=stream)
    if outcome.cone_index_sets:
        sets = ", ".join("{%s}" % ",".join(str(q) for q in s)
                         for s in outcome.cone_index_sets)
        print("cone extension index sets: %s" % sets, file=stream)
    if outcome.message:
        print("note: %s" % outcome.message, file=stream)


def _outcome_json(outcome: RunOutcome, mode: str) -> dict:
    payload = {
        "version": 1,
        "mode": mode,
        "engine_mode": outcome.mode,
        "status": outcome.status,
        "value": None if outcome.value is None else float(outcome.value),
        "value_lo": None,
        "value_hi": None,
        "word": (None if outcome.candidate is None
                 else list(outcome.candidate.word)),
        "root_words": [list(word) for word in outcome.root_words],
        "iterations": outcome.iterations,
        "vertex_count": outcome.vertex_count,
        "t_N": (None if outcome.t_N is None or np.isinf(outcome.t_N)
                else float(outcome.t_N)),
        "budget_exhausted": outcome.budget_exhausted,
        "lps_solved": outcome.lps_solved,
        "lps_skipped": outcome.lps_skipped,
        "cone_index_sets": (None if outcome.cone_index_sets is None
                            else [list(s) for s in outcome.cone_index_sets]),
        "message": outcome.message,
    }
    if outcome.bounds is not None:
        payload["value_lo"] = float(outcome.bounds[0])
        payload["value_hi"] = (None if np.isinf(outcome.bounds[1])
                               else float(outcome.bounds[1]))
    return payload


def cmd_compute(args) -> int:
    try:
        family = load_family(args.input)
    except FamilyFileError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_ERROR
    mode = args.mode
    config = RunConfig(
        mode=_engine_mode(mode, family),
        max_candidate_length=args.max_length,
        max_iterations=args.max_iters,
        remove_boundary=args.remove_boundary,
    )
    try:
        outcome = run(family, config)
    except (ValueError, RuntimeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_ERROR
    if args.certificate and outcome.certificate is not None:
        try:
            with open(args.certificate, "w", encoding="utf-8") as handle:
                handle.write(serialize(outcome.certificate) + "\n")
        except OSError as exc:
            return _cannot_write(args.certificate, exc)
    if args.output == "json":
        print(json.dumps(_outcome_json(outcome, mode), indent=2))
    elif args.output == "csv":
        print(CSV_HEADER)
        print(_outcome_row(outcome, "-", family.dim, mode))
    else:
        _print_outcome_text(outcome, mode, sys.stdout)
    return _exit_code(outcome)


def cmd_verify(args) -> int:
    try:
        family = load_family(args.input)
    except FamilyFileError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_ERROR
    try:
        with open(args.certificate, "r", encoding="utf-8") as handle:
            cert = deserialize(handle.read())
    except OSError as exc:
        print("error: cannot read %s: %s" % (args.certificate, exc),
              file=sys.stderr)
        return EXIT_ERROR
    except CertificateFormatError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_ERROR
    report = verify(family, cert)
    if report.verdict:
        print("certificate valid: mode %s, word %s, value %s"
              % (cert.mode, _format_word(cert.word),
                 _sig(cert.rho_per_step, 9)))
        print("worst membership slack: %s" % _sig(report.worst_slack, 9))
        print("membership LPs: %d solved, %d skipped"
              % (report.lps_solved, report.lps_skipped))
        return EXIT_OK
    print("certificate INVALID")
    for failure in report.failures:
        print("  - %s" % failure)
    return EXIT_ERROR


def cmd_dataset(args) -> int:
    spec = DatasetSpec(name=args.name, r=args.r, kind=args.kind, dim=args.d,
                       size=args.m, seed=args.seed, density=args.density)
    try:
        family = build(spec)
    except (ValueError, RuntimeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_ERROR
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as handle:
                dump_family(family, handle)
        except OSError as exc:
            return _cannot_write(args.out, exc)
        print("wrote %s (dim %d, %d matrices, fingerprint %s)"
              % (args.out, family.dim, family.size,
                 family_fingerprint(family)[:16]))
    else:
        dump_family(family, sys.stdout)
    return EXIT_OK


def _parse_seeds(text: str) -> List[int]:
    if ":" in text:
        start, stop = text.split(":", 1)
        return list(range(int(start), int(stop)))
    return [int(s) for s in text.split(",") if s]


def cmd_bench(args) -> int:
    seeds = _parse_seeds(args.seeds)
    if not seeds:
        print("error: no seeds given", file=sys.stderr)
        return EXIT_ERROR
    rows = []
    worst = EXIT_OK
    for seed in seeds:
        try:
            family = build(DatasetSpec(name="random", kind=args.kind,
                                       dim=args.d, size=args.m, seed=seed,
                                       density=args.density))
            config = RunConfig(
                mode=_engine_mode(args.mode, family),
                max_candidate_length=args.max_length,
                max_iterations=args.max_iters,
            )
            outcome = run(family, config)
        except (ValueError, RuntimeError) as exc:
            print("error: seed %d: %s" % (seed, exc), file=sys.stderr)
            return EXIT_ERROR
        rows.append(_outcome_row(outcome, seed, family.dim, args.mode))
        worst = max(worst, _exit_code(outcome))
    if args.output == "csv":
        print(CSV_HEADER)
        for row in rows:
            print(row)
    else:
        print(CSV_HEADER.replace(",", "  "))
        for row in rows:
            print(row.replace(",", "  "))
    return worst


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polyrad",
        description="Exact joint/lower spectral radius via invariant polytopes")
    parser.add_argument("--version", action="version", version=__version__)
    defaults = RunConfig()
    sub = parser.add_subparsers(dest="command", required=True)

    compute = sub.add_parser("compute", help="run the algorithm on a family file")
    compute.add_argument("--input", required=True, help="family file (JSON)")
    compute.add_argument("--mode", choices=("jsr", "lsr"), default="jsr")
    compute.add_argument("--max-length", type=int, default=None,
                         help="candidate word length cap (default 6, or 4 "
                              "above dimension 10)")
    compute.add_argument("--max-iters", type=int, default=defaults.max_iterations)
    compute.add_argument("--remove-boundary", action="store_true",
                         help="also discard new points on the unit sphere")
    compute.add_argument("--certificate", default=None,
                         help="write the certificate here on termination")
    compute.add_argument("--output", choices=("text", "json", "csv"),
                         default="text")
    compute.set_defaults(func=cmd_compute)

    ver = sub.add_parser("verify", help="re-check a certificate")
    ver.add_argument("--input", required=True, help="family file (JSON)")
    ver.add_argument("--certificate", required=True)
    ver.set_defaults(func=cmd_verify)

    data = sub.add_parser("dataset", help="materialize a family file")
    data.add_argument("name", choices=("euler-binary", "pascal-rhombus",
                                       "overlap-free", "euler-ternary-14",
                                       "random"))
    data.add_argument("--r", type=int, default=None, help="euler-binary order")
    data.add_argument("--kind", choices=RANDOM_KINDS, default=None)
    data.add_argument("--d", type=int, default=None, help="dimension")
    data.add_argument("--m", type=int, default=None, help="family size")
    data.add_argument("--seed", type=int, default=None)
    data.add_argument("--density", type=float, default=None)
    data.add_argument("--out", default=None, help="output path (default stdout)")
    data.set_defaults(func=cmd_dataset)

    bench = sub.add_parser("bench", help="sweep seeded random families")
    bench.add_argument("--kind", choices=RANDOM_KINDS, required=True)
    bench.add_argument("--d", type=int, required=True)
    bench.add_argument("--m", type=int, required=True)
    bench.add_argument("--mode", choices=("jsr", "lsr"), default="jsr")
    bench.add_argument("--seeds", default="0:5",
                       help="range start:stop or comma list")
    bench.add_argument("--density", type=float, default=None)
    bench.add_argument("--max-length", type=int, default=None)
    bench.add_argument("--max-iters", type=int, default=defaults.max_iterations)
    bench.add_argument("--output", choices=("text", "csv"), default="csv")
    bench.set_defaults(func=cmd_bench)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
