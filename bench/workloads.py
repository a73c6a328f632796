"""The benchmark's workloads: which problems each pass runs, and why.

A problem is one ``polyrad.run`` call: a family, a ``RunConfig`` and an
engine-independent reference.  Each workload is a fixed list of the
paper's families plus families drawn from the benchmark seed; the seed
also shuffles the order of the pass.  The fixed part carries most of the
work so that runs with different seeds do comparable work, while the
drawn part keeps inputs changing from seed to seed.
"""

from __future__ import annotations

import fnmatch
import math
from dataclasses import dataclass

import numpy as np

from reference import BruteForce, OptimalWord, Published

GOLDEN = (1.0 + math.sqrt(5.0)) / 2.0

# Published six-decimal values for the binary partial-sum families:
# r -> (joint spectral radius, lower spectral radius).
EULER_BINARY = {
    7: (3.511547, 3.491891),
    9: (4.503099, 4.494492),
    11: (5.505892, 5.497042),
    13: (6.502167, 6.498946),
    15: (7.500106, 7.499841),
}
# The transposed Pascal-rhombus pair's lower spectral radius is published
# as the averaged radius of this product.
RHOMBUS_LSR = OptimalWord((1, 1, 1, 2, 2, 2), 1e-9)

# Known defects of the package: (problem id pattern, start of the failure
# reason).  They run in every pass, so ``failed`` always carries them until
# the package is fixed.  Any other failure makes a run incorrect.
KNOWN_DEFECTS = (
    ("binary-d20-s2/P", "verify rejected"),
    ("binary-d50-s4/P", "raised LPCyclingError"),
    ("nonneg-uniform-d6-s2/P/cap2", "raised MatrixError"),
    # Drawn binary d20 families cycle too, in about 1 draw in 10.
    ("binary-d20-s*/P/it20", "raised LPCyclingError"),
    # Drawn nonneg-uniform d6 families hit the restart_product overflow of
    # nonneg-uniform-d6-s2 in either mode, in about 1 draw in 500.
    ("nonneg-uniform-d6-s*/?/cap2", "raised MatrixError: matrix entries must be finite"),
)


def known_defect(pid: str, failure: str) -> bool:
    """Whether ``failure`` of problem ``pid`` is a known defect."""
    return any(fnmatch.fnmatchcase(pid, pattern) and failure.startswith(reason)
               for pattern, reason in KNOWN_DEFECTS)


# The main work counter of each layer, on the workload meant to stress it:
# a traced run fails its self-test when one of these reads zero.
STRESSED = {
    "jsr_nonneg": ("simplex.lps", "membership.calls_P", "engine.pairs",
                   "certificates.verify_lps", "certificates.kb",
                   "datasets.build_s"),
    "lsr_antinorm": ("simplex.lps", "membership.calls_L", "membership.calls_ext",
                     "engine.pairs", "cone.negotiations", "cone.margin_lps"),
    "jsr_real": ("simplex.lps", "membership.calls_R", "engine.pairs",
                 "certificates.verify_lps"),
    "candidate_search": ("candidates.enumerate_s", "candidates.root_s",
                         "candidates.restarts", "matrices.word_products",
                         "matrices.eig_calls"),
}


@dataclass
class Problem:
    pid: str
    family: object
    config: dict
    reference: object


def _draws(seed: int, count: int):
    """Family seeds drawn from the benchmark seed."""
    rng = np.random.default_rng([seed, 1])
    return [int(s) for s in rng.integers(0, 2 ** 31, size=count)]


def _jsr_nonneg(ds, pr, seed):
    out = []
    for r, (jsr, _) in EULER_BINARY.items():
        out.append(("euler-binary-%d/P" % r, lambda r=r: ds.euler_binary(r),
                    dict(mode="P", max_candidate_length=6),
                    Published(jsr, 1e-6, capped_tol=1e-6)))
    out.append(("overlap-free/P", ds.overlap_free,
                dict(mode="P", max_candidate_length=8),
                Published(2.517934040, 1e-8)))
    out.append(("euler-ternary-14/P", ds.euler_ternary_14,
                dict(mode="P", max_candidate_length=6),
                Published(4.72204513, 1e-7)))
    out.append(("binary-d20-s2/P", lambda: ds.random_family("binary", 20, 2, 2),
                dict(mode="P", max_candidate_length=4), BruteForce(6, 4)))
    for s in (0, 1, 4):
        out.append(("binary-d50-s%d/P" % s,
                    lambda s=s: ds.random_family("binary", 50, 2, s),
                    dict(mode="P", max_candidate_length=4), BruteForce(4, 4)))
    # The drawn family stops at 20 iterations so that a slow draw cannot
    # dominate a pass; the defects above run at the default 50.
    for s in _draws(seed, 1):
        out.append(("binary-d20-s%d/P/it20" % s,
                    lambda s=s: ds.random_family("binary", 20, 2, s),
                    dict(mode="P", max_candidate_length=4, max_iterations=20),
                    BruteForce(6, 4)))
    return out


def _lsr_antinorm(ds, pr, seed):
    out = []
    for r, (_, lsr) in EULER_BINARY.items():
        out.append(("euler-binary-%d/L" % r, lambda r=r: ds.euler_binary(r),
                    dict(mode="L", max_candidate_length=6),
                    Published(lsr, 1e-6, capped_tol=1e-6)))
    out.append(("pascal-rhombus-T/L", lambda: ds.pascal_rhombus().transposed(),
                dict(mode="L", max_candidate_length=6, remove_boundary=True),
                RHOMBUS_LSR))
    out.append(("euler-ternary-14/L", ds.euler_ternary_14,
                dict(mode="L", max_candidate_length=6),
                Published(4.61047781, 1e-7)))
    out.append(("overlap-free/L/it30", ds.overlap_free,
                dict(mode="L", max_candidate_length=11, max_iterations=30),
                Published(2.417562630, 1e-8)))
    return out


def _jsr_real(ds, pr, seed):
    # A fixed pool of families at family seeds 0..9 plus two drawn ones.
    # Runs stop at 10 iterations or 60 vertices (30 for drawn families),
    # so that whether a drawn family terminates moves a pass by little.
    pool = [(d, s, 60) for s in range(10) for d in (7, 8)]
    drawn = [(7 + i, s, 30) for i, s in enumerate(_draws(seed, 2))]
    return [("gaussian-d%d-s%d/R/cap%d" % (d, s, cap),
             lambda d=d, s=s: ds.random_family("gaussian-equal-norm", d, 2, s),
             dict(mode="R", max_candidate_length=6, max_iterations=10,
                  vertex_cap=cap), BruteForce(6, 6))
            for d, s, cap in pool + drawn]


def _candidate_search(ds, pr, seed):
    MatrixFamily = pr.MatrixFamily
    jsr_pair = lambda: MatrixFamily([np.array([[1.0, 1.0], [0.0, 1.0]]),
                                     0.9 * np.array([[1.0, 0.0], [1.0, 1.0]])])
    lsr_pair = lambda: MatrixFamily([np.array([[7.0, 0.0], [2.0, 3.0]]),
                                     np.array([[2.0, 4.0], [0.0, 8.0]])])
    slow_pair = lambda: MatrixFamily([np.array([[1.0, 1.0], [0.0, 1.0]]),
                                      0.8 * np.array([[1.0, 0.0], [1.0, 1.0]])])
    lsr_closed = (4.0 * (213803.0 + math.sqrt(44666192953.0))) ** (1.0 / 8.0)
    out = [
        ("jsr-pair/P/cap13", jsr_pair, dict(mode="P", max_candidate_length=13),
         Published(math.sqrt(0.9) * GOLDEN, 1e-8)),
        ("lsr-pair/L/cap13", lsr_pair, dict(mode="L", max_candidate_length=13),
         Published(lsr_closed, 1e-8)),
        ("slow-pair/P/cap12", slow_pair,
         dict(mode="P", max_candidate_length=12, remove_boundary=True),
         Published(1.0 + 1.0 / math.sqrt(5.0), 1e-9)),
        ("pascal-rhombus-T/L/cap12", lambda: ds.pascal_rhombus().transposed(),
         dict(mode="L", max_candidate_length=12, remove_boundary=True), RHOMBUS_LSR),
        ("euler-ternary-14/P/cap9", ds.euler_ternary_14,
         dict(mode="P", max_candidate_length=9), Published(4.72204513, 1e-7)),
        ("euler-ternary-14/L/cap9", ds.euler_ternary_14,
         dict(mode="L", max_candidate_length=9), Published(4.61047781, 1e-7)),
        ("nonneg-uniform-d6-s2/P/cap2",
         lambda: ds.random_family("nonneg-uniform", 6, 2, 2),
         dict(mode="P", max_candidate_length=2), BruteForce(6, 2)),
    ]
    # Drawn families stop at 10 iterations: this workload measures the
    # candidate search, not polytope growth.
    for s in _draws(seed, 4):
        for mode in ("P", "L"):
            out.append(("nonneg-uniform-d6-s%d/%s/cap2" % (s, mode),
                        lambda s=s: ds.random_family("nonneg-uniform", 6, 2, s),
                        dict(mode=mode, max_candidate_length=2, max_iterations=10),
                        BruteForce(6, 2)))
    return out


_SPECS = {
    "jsr_nonneg": _jsr_nonneg,
    "lsr_antinorm": _lsr_antinorm,
    "jsr_real": _jsr_real,
    "candidate_search": _candidate_search,
}
NAMES = tuple(_SPECS)


def build(name: str, seed: int, polyrad) -> list:
    """Problems of workload ``name`` for ``seed``, families built, in the
    seeded pass order.  References are not resolved yet."""
    problems = [Problem(pid, make(), config, reference) for pid, make, config,
                reference in _SPECS[name](polyrad.datasets, polyrad, seed)]
    order = np.random.default_rng([seed, 0]).permutation(len(problems))
    return [problems[i] for i in order]


def resolve_references(problems) -> None:
    """Compute every reference that needs the family (outside set-up)."""
    for p in problems:
        p.reference = p.reference.resolve(p.family.matrices)
