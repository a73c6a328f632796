"""Invariant polytope growth for joint and lower spectral radii.

Mode "R" grows a balanced polytope (general real families), mode "P" a
monotone polytope in the nonnegative orthant (nonnegative families), and
mode "L" an antinorm polytope, optionally widened by a cone of recession
rays, for minimal growth.  A run terminates exactly when an iteration adds
no new vertex, in which case the candidate's averaged spectral radius is
the exact answer and a certificate is emitted; capped runs report rigorous
two-sided bounds instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from .candidates import (
    Candidate,
    CyclicRoot,
    InapplicableError,
    RestartFailedError,
    build_cyclic_root,
    enumerate_candidates,
    normalize_family,
    restart_product,
)
from .certificates import (
    CERT_VERSION,
    SPAN_MODES,
    Certificate,
    family_fingerprint,
    spans_check,
)
from .cone import (
    DELTA_DEFAULT,
    EPSILON_DEFAULT,
    PROBE_ITERS_DEFAULT,
    ConeExtension,
    detect_near_boundary,
    negotiate_cone,
    root_profile,
)
from .matrices import REAL_SIMPLE_UNIQUE, MatrixFamily, Word
from .membership import (
    antinorm_membership_ext,
    antinorm_membership_L,
    norm_membership_P,
    norm_membership_R,
)

MODE_R = "R"
MODE_P = "P"
MODE_L = "L"

TERMINATED = "terminated"
ITERATION_CAPPED = "iteration_capped"
CANDIDATE_REJECTED = "candidate_rejected"
INAPPLICABLE = "inapplicable"

_DUP_TOL = 1e-9
# Restarts with a better candidate before the stopping tests are dropped.
_RESTART_BUDGET = 10


class VertexCapError(RuntimeError):
    """Raised when the vertex count exceeds the configured cap."""


class StoppingViolation(Exception):
    """Internal signal: a dual stopping test failed for a new point.

    ``j`` is the 1-based index of the violated dual; ``path`` is the word
    (applied first to last) carrying the j-th root vertex to the point.
    """

    def __init__(self, j: int, path: Word):
        super().__init__("stopping test violated at dual %d" % j)
        self.j = j
        self.path = path


@dataclass
class RunConfig:
    mode: str = MODE_P
    max_candidate_length: Optional[int] = None
    max_iterations: int = 50
    boundary_tol: float = 1e-10
    remove_boundary: bool = False
    stopping_enabled: bool = True
    cone_delta: float = DELTA_DEFAULT
    cone_epsilon: float = EPSILON_DEFAULT
    cone_probe_iters: int = PROBE_ITERS_DEFAULT
    vertex_cap: int = 2000


@dataclass
class VertexNode:
    point: np.ndarray
    parent: Optional[int]
    generator: Optional[int]
    root_index: Optional[int] = None


@dataclass
class PolytopeState:
    word: Word
    nodes: List[VertexNode] = field(default_factory=list)
    U: List[int] = field(default_factory=list)
    R: List[Tuple[int, int]] = field(default_factory=list)
    k: int = 0
    t_history: List[List[float]] = field(default_factory=list)
    dead_count: int = 0

    def points(self) -> List[np.ndarray]:
        return [node.point for node in self.nodes]


@dataclass
class RunOutcome:
    status: str
    mode: str
    value: Optional[float] = None
    bounds: Optional[Tuple[float, float]] = None
    t_N: Optional[float] = None
    certificate: Optional[Certificate] = None
    rejection: Optional[Tuple[int, Word]] = None
    iterations: int = 0
    vertex_count: int = 0
    candidate: Optional[Candidate] = None
    cone: Optional[ConeExtension] = None
    cone_index_sets: Optional[Tuple[Tuple[int, ...], ...]] = None
    budget_exhausted: bool = False
    message: str = ""


def _initial_state(root: CyclicRoot, family_size: int) -> PolytopeState:
    word = root.candidate.word
    n = len(word)
    state = PolytopeState(word=word)
    for i in range(n):
        state.nodes.append(VertexNode(root.vertices[i], None, None, i + 1))
    state.U = list(range(n))
    state.R = [(i, p) for i in range(n)
               for p in range(1, family_size + 1) if p != word[i]]
    return state


def _membership(mode: str, z, points,
                extension: Optional[ConeExtension]) -> float:
    if mode == MODE_R:
        return norm_membership_R(z, points)
    if mode == MODE_P:
        return norm_membership_P(z, points)
    rays = extension.rays if extension is not None else None
    if rays:
        return antinorm_membership_ext(z, points, rays)
    return antinorm_membership_L(z, points)


def _is_dead(mode: str, t: float, tau: float, remove_boundary: bool) -> bool:
    if mode == MODE_L:
        return t <= 1.0 + tau if remove_boundary else t < 1.0 - tau
    return t >= 1.0 - tau if remove_boundary else t > 1.0 + tau


def stopping_check(mode: str, duals, z, tau: float) -> Optional[int]:
    """Smallest 1-based dual index whose pairing with ``z`` leaves the
    admissible range, or ``None`` when all pairings pass."""
    for j, dual in enumerate(duals, start=1):
        s = float(dual @ z)
        if mode == MODE_R:
            if abs(s) > 1.0 + tau:
                return j
        elif mode == MODE_P:
            if s > 1.0 + tau:
                return j
        else:
            if s < 1.0 - tau:
                return j
    return None


def _path_word(state: PolytopeState, vid: int, generator: int, j: int) -> Word:
    """Word carrying root vertex ``j`` to ``A_generator @ nodes[vid]``.

    Ancestry generators are collected up to the root the point descends
    from; when that root differs from ``j``, the cycle segment from ``j``
    around the candidate word to the ancestor root is prepended.
    """
    gens: List[int] = [generator]
    node = state.nodes[vid]
    while node.parent is not None:
        gens.append(node.generator)
        node = state.nodes[node.parent]
    gens.reverse()
    i = node.root_index
    word = state.word
    if i == j:
        prefix: Tuple[int, ...] = ()
    elif i > j:
        prefix = word[j - 1:i - 1]
    else:
        prefix = word[j - 1:] + word[:i - 1]
    return prefix + tuple(gens)


def _is_duplicate(z: np.ndarray, points) -> bool:
    scale = max(1.0, float(np.max(np.abs(z))))
    for p in points:
        if p.shape == z.shape and float(np.max(np.abs(p - z))) <= _DUP_TOL * scale:
            return True
    return False


def iterate(state: PolytopeState, scaled: MatrixFamily, config: RunConfig,
            duals=None, extension: Optional[ConeExtension] = None) -> None:
    """Process every pending (vertex, generator) pair once.

    New points are classified against the polytope as it grows within the
    iteration; alive points become vertices and seed the next iteration's
    pairs.  Raises :class:`StoppingViolation` when a dual test fails,
    :class:`InapplicableError` on a zero image in mode L, and
    :class:`VertexCapError` when the vertex cap is hit.
    """
    mode = config.mode
    tau = config.boundary_tol
    t_values: List[float] = []
    new_frontier: List[int] = []
    for vid, p in state.R:
        v = state.nodes[vid].point
        z = scaled.matrix(p) @ v
        if mode == MODE_L:
            if float(np.max(np.abs(z))) <= 1e-14 * max(1.0, float(np.max(np.abs(v)))):
                raise InapplicableError(
                    "a generator maps a vertex to zero; the antinorm "
                    "construction does not apply")
        points = state.points()
        t = _membership(mode, z, points, extension)
        t_values.append(t)
        if _is_dead(mode, t, tau, config.remove_boundary):
            state.dead_count += 1
            continue
        if duals is not None:
            j = stopping_check(mode, duals, z, tau)
            if j is not None:
                raise StoppingViolation(j, _path_word(state, vid, p, j))
        if _is_duplicate(z, points):
            # A revisit may be culled only when its membership value
            # certifies it on or inside the current polytope; otherwise it
            # is a genuinely new (if nearby) point and must stay alive.
            inside = t <= 1.0 if mode == MODE_L else t >= 1.0
            if inside:
                state.dead_count += 1
                continue
        state.nodes.append(VertexNode(z, vid, p))
        new_frontier.append(len(state.nodes) - 1)
        if len(state.nodes) > config.vertex_cap:
            raise VertexCapError("vertex cap %d exceeded" % config.vertex_cap)
    state.k += 1
    state.U = new_frontier
    state.R = [(u, p) for u in new_frontier for p in range(1, scaled.size + 1)]
    state.t_history.append(t_values)


def final_bounds(state: PolytopeState, mode: str,
                 rho_per_step: float) -> Tuple[float, float, Optional[float]]:
    """Two-sided bounds from the last completed iteration.

    Returns ``(lower, upper, t_N)`` where ``t_N`` aggregates the last
    iteration's membership values (minimum for modes R/P, maximum for L).
    """
    last: List[float] = []
    for values in reversed(state.t_history):
        if values:
            last = values
            break
    if not last:
        return rho_per_step, rho_per_step, None
    if mode == MODE_L:
        t_N = max(last)
        lower = 0.0 if math.isinf(t_N) else rho_per_step / t_N
        return min(lower, rho_per_step), rho_per_step, t_N
    t_N = min(last)
    upper = rho_per_step / t_N if t_N > 0.0 else float("inf")
    return rho_per_step, max(upper, rho_per_step), t_N


def _build_certificate(family: MatrixFamily, candidate: Candidate,
                       state: PolytopeState, extension: Optional[ConeExtension],
                       mode: str, config: RunConfig) -> Certificate:
    cone_H = tuple(extension.rays) if extension is not None else None
    return Certificate(
        version=CERT_VERSION,
        mode=mode,
        family_fingerprint=family_fingerprint(family),
        word=candidate.word,
        rho_per_step=candidate.rho_per_step,
        vertices=tuple(state.points()),
        cone_H=cone_H,
        iterations=state.k,
        tolerance=config.boundary_tol,
    )


def _grow(family: MatrixFamily, scaled: MatrixFamily, root: CyclicRoot,
          candidate: Candidate, config: RunConfig,
          duals) -> RunOutcome:
    """Grow the polytope for one candidate until termination or the cap."""
    mode = config.mode
    extension: Optional[ConeExtension] = None
    cone_sets: Optional[Tuple[Tuple[int, ...], ...]] = None
    probe_done = mode != MODE_L

    state = _initial_state(root, family.size)
    k = 0
    while k < config.max_iterations:
        try:
            iterate(state, scaled, config, duals, extension)
        except VertexCapError as exc:
            lower, upper, t_N = final_bounds(state, mode, candidate.rho_per_step)
            return RunOutcome(
                status=ITERATION_CAPPED, mode=mode, bounds=(lower, upper),
                t_N=t_N, iterations=state.k, vertex_count=len(state.nodes),
                candidate=candidate, cone=extension, cone_index_sets=cone_sets,
                message=str(exc))
        k = state.k
        if not state.U:
            span_mode = SPAN_MODES[mode]
            if not spans_check(state.points(), span_mode):
                return RunOutcome(
                    status=INAPPLICABLE, mode=mode, iterations=state.k,
                    vertex_count=len(state.nodes), candidate=candidate,
                    cone=extension, cone_index_sets=cone_sets,
                    message="the polytope stopped growing without the %s "
                            "span of the space, so the family is reducible "
                            "and the candidate value is not certified"
                            % span_mode)
            certificate = _build_certificate(family, candidate, state,
                                             extension, mode, config)
            lower, upper, t_N = final_bounds(state, mode, candidate.rho_per_step)
            return RunOutcome(
                status=TERMINATED, mode=mode, value=candidate.rho_per_step,
                bounds=(candidate.rho_per_step, candidate.rho_per_step),
                t_N=t_N, certificate=certificate, iterations=state.k,
                vertex_count=len(state.nodes), candidate=candidate,
                cone=extension, cone_index_sets=cone_sets)
        if not probe_done and k >= config.cone_probe_iters:
            probe_done = True
            sets = detect_near_boundary(state.points(), config.cone_delta)
            if sets:
                cone_sets = tuple(tuple(s) for s in sets)
                negotiated = negotiate_cone(
                    scaled, sets, config.cone_delta, config.cone_epsilon,
                    profile=root_profile(root.vertices))
                if negotiated is not None:
                    # Restart growth from the roots with the widened set.
                    extension = negotiated
                    cone_sets = negotiated.index_sets
                    state = _initial_state(root, family.size)
                    k = 0
    lower, upper, t_N = final_bounds(state, mode, candidate.rho_per_step)
    return RunOutcome(
        status=ITERATION_CAPPED, mode=mode, bounds=(lower, upper), t_N=t_N,
        iterations=state.k, vertex_count=len(state.nodes), candidate=candidate,
        cone=extension, cone_index_sets=cone_sets)


def run(family: MatrixFamily, config: RunConfig) -> RunOutcome:
    """Full pipeline: candidate search, polytope growth, restarts.

    Stopping violations trigger a restart with a provably better candidate,
    up to ten restarts; when the restart machinery cannot improve the
    candidate (numerically marginal violations) the run continues with the
    stopping tests disabled, which preserves correctness at the cost of
    possibly slower termination.
    """
    mode = config.mode
    if mode not in (MODE_R, MODE_P, MODE_L):
        raise ValueError("mode must be one of 'R', 'P', 'L'")
    if mode in (MODE_P, MODE_L) and not family.is_nonnegative():
        raise ValueError("modes P and L require a nonnegative family")
    sense = "min" if mode == MODE_L else "max"
    max_length = config.max_candidate_length
    if max_length is None:
        max_length = 6 if family.dim <= 10 else 4

    candidate = enumerate_candidates(family, max_length, sense)
    budget = _RESTART_BUDGET
    stopping = config.stopping_enabled
    tried = {candidate.word}
    last_rejection: Optional[Tuple[int, Word]] = None
    budget_exhausted = False

    while True:
        if sense == "min" and candidate.rho == 0.0:
            return RunOutcome(
                status=TERMINATED, mode=mode, value=0.0, bounds=(0.0, 0.0),
                candidate=candidate,
                message="a nilpotent product forces the lower spectral "
                        "radius to zero; no polytope certificate exists")
        if candidate.rho == 0.0:
            return RunOutcome(
                status=INAPPLICABLE, mode=mode, candidate=candidate,
                message="every enumerated product has zero spectral radius; "
                        "the polytope construction cannot be normalized")
        try:
            scaled = normalize_family(family, candidate.rho_per_step)
            with_duals = (stopping and
                          candidate.eigen.classification == REAL_SIMPLE_UNIQUE)
            root = build_cyclic_root(scaled, candidate, with_duals)
        except InapplicableError as exc:
            return RunOutcome(status=INAPPLICABLE, mode=mode,
                              candidate=candidate, message=str(exc))
        duals = root.duals if with_duals else None
        try:
            outcome = _grow(family, scaled, root, candidate, config, duals)
        except InapplicableError as exc:
            return RunOutcome(status=INAPPLICABLE, mode=mode,
                              candidate=candidate, message=str(exc))
        except StoppingViolation as violation:
            last_rejection = (violation.j, violation.path)
            if budget <= 0:
                budget_exhausted = True
                stopping = False
                continue
            budget -= 1
            try:
                replacement = restart_product(
                    family, candidate, root, last_rejection, sense)
            except RestartFailedError:
                # The violation is numerically marginal: re-enumerate with a
                # longer cap once, otherwise keep the candidate and continue
                # without the (optional) stopping tests.
                longer = max_length + 2
                replacement = enumerate_candidates(family, longer, sense)
                if replacement.word == candidate.word:
                    stopping = False
                    continue
                max_length = longer
            if replacement.word in tried:
                stopping = False
                continue
            tried.add(replacement.word)
            candidate = replacement
            continue
        outcome.rejection = last_rejection
        outcome.budget_exhausted = budget_exhausted
        return outcome
