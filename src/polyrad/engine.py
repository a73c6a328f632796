"""Invariant polytope growth for joint and lower spectral radii.

Mode "R" grows a balanced polytope (general real families), mode "P" a
monotone polytope in the nonnegative orthant (nonnegative families), and
mode "L" an antinorm polytope, optionally widened by a cone of recession
rays, for minimal growth.  A run terminates exactly when an iteration adds
no new vertex, in which case the candidate's averaged spectral radius is
the exact answer and a certificate is emitted; capped runs report rigorous
two-sided bounds instead.

The polytope starts from the cyclic root chain of the candidate word and
from one more chain per symmetric twin: when a coordinate permutation
maps the family onto itself and the candidate to another word that is
not one of its rotations (:func:`symmetric_twins`), that word is a second
dominant product, and the polytope can close only if it holds that
product's leading eigenvector too.  Every vertex node records the chain it
descends from; the stopping tests pair a point with that chain's duals,
and a violation restarts from that chain's candidate and root.

The vertex set is one ``(n, d)`` array, ``PolytopeState.vertices``, which
the membership LPs, the span check, the cone probe and the certificate read.

In modes P and L the best single vertex bounds an image's membership value
(:func:`one_vertex_bound`): from below in P, from above in L.  In mode R
the best of the run's recent optimal supports bounds it from below
(:func:`support_bound`).  When that bound already puts the image inside
the body, it is recorded as the image's value and no LP runs; the verdict
is the LP's, since the bound lies on the inside of the LP value.  Only
``t_N`` of a terminated run can differ from the LP values (it can be such
a bound): in a capped run the alive points, which always get their LP,
set the last iteration's extreme.  A mode-R LP that is solved starts from
the best support's basis, and its own support joins the cache.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

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
    symmetric_twins,
)
from .certificates import (
    CERT_VERSION,
    Certificate,
    family_fingerprint,
    spans_check,
)
from .cone import (
    PROBE_ITERS,
    ConeExtension,
    detect_near_boundary,
    negotiate_cone,
    root_profile,
)
from .matrices import MatrixFamily, Word
from .membership import (
    MODE_L, MODE_P, MODE_R,  # also importable from here
    MODES,
    Mode,
    antinorm_membership_ext,
    antinorm_membership_L,
    is_zero_image,
    norm_membership_P,
    norm_membership_R,
    one_vertex_bound,
    support_bound,
)

TERMINATED = "terminated"
ITERATION_CAPPED = "iteration_capped"
INAPPLICABLE = "inapplicable"

# The boundary tolerance tau: a value within tau of 1 is on the boundary.
# Certificates record it as their tolerance.
BOUNDARY_TOL = 1e-10
_DUP_TOL = 1e-9
# Restarts with a better candidate before the stopping tests are dropped.
_RESTART_BUDGET = 10


class VertexCapError(RuntimeError):
    """Raised when the vertex count exceeds the configured cap."""


class StoppingViolation(Exception):
    """Internal signal: a dual stopping test failed for a new point.

    ``j`` is the 1-based index of the violated dual of root chain
    ``chain``; ``path`` is the word (applied first to last) carrying that
    chain's j-th root vertex to the point.
    """

    def __init__(self, j: int, path: Word, chain: int = 0):
        super().__init__("stopping test violated at dual %d of chain %d"
                         % (j, chain))
        self.j = j
        self.path = path
        self.chain = chain


@dataclass
class RunConfig:
    mode: str = MODE_P
    max_candidate_length: Optional[int] = None
    max_iterations: int = 50
    remove_boundary: bool = False
    vertex_cap: int = 2000


@dataclass
class VertexNode:
    """The ancestry of a vertex: the node it is the image of and by which
    generator, and the root chain it descends from; a root (no parent)
    records its 1-based place in that chain as ``root_index``."""

    parent: Optional[int]
    generator: Optional[int]
    root_index: Optional[int] = None
    chain: int = 0


@dataclass
class PolytopeState:
    """Growth state; ``words[c]`` is the word of root chain ``c``, the
    candidate's first and then its symmetric twins, and row ``i`` of
    ``vertices`` is the point of ``nodes[i]``.  ``supports`` holds the
    recent optimal supports of mode-R LPs, as rows of ``vertices``, the
    newest first (:func:`support_bound`)."""

    words: Tuple[Word, ...]
    nodes: List[VertexNode] = field(default_factory=list)
    vertices: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    U: List[int] = field(default_factory=list)
    R: List[Tuple[int, int]] = field(default_factory=list)
    k: int = 0
    t_history: List[List[float]] = field(default_factory=list)
    supports: List[Tuple[int, ...]] = field(default_factory=list)


@dataclass
class MembershipCounts:
    """Images whose membership LP a run solved, and images a one-vertex or
    support bound settled without one."""

    solved: int = 0
    skipped: int = 0


@dataclass
class RunOutcome:
    """A run's result.  ``iteration_capped`` also ends a run stopped by the
    vertex cap; ``message`` then names the cap."""

    status: str
    mode: str
    value: Optional[float] = None
    bounds: Optional[Tuple[float, float]] = None
    # The last complete iteration's extreme membership value; in a
    # terminated run it can be a one-vertex bound (P, L) or a support
    # bound (R).
    t_N: Optional[float] = None
    certificate: Optional[Certificate] = None
    iterations: int = 0
    vertex_count: int = 0
    candidate: Optional[Candidate] = None
    cone: Optional[ConeExtension] = None
    cone_index_sets: Optional[Tuple[Tuple[int, ...], ...]] = None
    budget_exhausted: bool = False
    message: str = ""
    # The word of every seeded root chain, the candidate's first.
    root_words: Tuple[Word, ...] = ()
    # Membership LPs solved, and images settled by one vertex or a cached
    # support without an LP, over every growth of the run (restarts
    # included).
    lps_solved: int = 0
    lps_skipped: int = 0


def _initial_state(roots: Sequence[CyclicRoot], family_size: int) -> PolytopeState:
    """Seed every root chain; chain ``c``'s roots name ``c``.  A root's
    image under its own next letter is the chain's next root, so that pair
    is not pending."""
    state = PolytopeState(words=tuple(root.candidate.word for root in roots))
    for c, root in enumerate(roots):
        word = root.candidate.word
        for i in range(len(word)):
            state.R.extend((len(state.nodes), p)
                           for p in range(1, family_size + 1) if p != word[i])
            state.nodes.append(VertexNode(None, None, i + 1, c))
    state.vertices = np.vstack([root.vertices for root in roots])
    state.U = list(range(len(state.nodes)))
    return state


def _membership(spec: Mode, z, state: PolytopeState, start,
                extension: Optional[ConeExtension]) -> float:
    # Looked up by name per call, so that wrapping the module attribute works.
    V = state.vertices
    if spec.sign < 0:
        if extension is not None and extension.rays:
            return antinorm_membership_ext(z, V, extension.rays)
        return antinorm_membership_L(z, V)
    if spec.balanced:
        return norm_membership_R(z, V, start, state.supports)
    return norm_membership_P(z, V)


def _is_dead(spec: Mode, t: float, remove_boundary: bool) -> bool:
    """Whether value ``t`` is inside the body (or on it, ``remove_boundary``)."""
    s = spec.sign
    if remove_boundary:
        return s * t >= s * (1.0 - s * BOUNDARY_TOL)
    return s * t > s * (1.0 + s * BOUNDARY_TOL)


def stopping_check(mode: str, duals, z) -> Optional[int]:
    """Smallest 1-based dual index whose pairing with ``z`` leaves the
    admissible range, by more than ``BOUNDARY_TOL``, or ``None`` when all
    pairings pass."""
    spec = MODES[mode]
    for j, dual in enumerate(duals, start=1):
        s = float(dual @ z)
        if spec.balanced:
            s = abs(s)
        if spec.sign * s > spec.sign * (1.0 + spec.sign * BOUNDARY_TOL):
            return j
    return None


def _path_word(state: PolytopeState, vid: int, generator: int, j: int) -> Word:
    """Word carrying root vertex ``j`` to ``A_generator @ nodes[vid]``.

    Ancestry generators are collected up to the root the point descends
    from, and ``j`` indexes that root's chain; when the root differs from
    ``j``, the segment from ``j`` around the chain's word to the root is
    prepended.
    """
    gens: List[int] = [generator]
    node = state.nodes[vid]
    while node.parent is not None:
        gens.append(node.generator)
        node = state.nodes[node.parent]
    gens.reverse()
    i = node.root_index
    word = state.words[node.chain]
    if i == j:
        prefix: Tuple[int, ...] = ()
    elif i > j:
        prefix = word[j - 1:i - 1]
    else:
        prefix = word[j - 1:] + word[:i - 1]
    return prefix + tuple(gens)


def _is_duplicate(z: np.ndarray, V: np.ndarray) -> bool:
    """Whether a row of ``V`` is within ``_DUP_TOL * max(1, |z|)`` of ``z``."""
    scale = max(1.0, float(np.max(np.abs(z))))
    return bool(np.any(np.max(np.abs(V - z), axis=1) <= _DUP_TOL * scale))


def iterate(state: PolytopeState, scaled: MatrixFamily, config: RunConfig,
            duals=None, extension: Optional[ConeExtension] = None,
            counts: Optional[MembershipCounts] = None) -> None:
    """Process every pending (vertex, generator) pair once.

    New points are classified against the polytope as it grows within the
    iteration; alive points become vertices and seed the next iteration's
    pairs; a zero image is dead in modes R and P without an LP, and so is
    an image whose one-vertex bound (modes P and L) or support bound (mode
    R) puts it inside the body.  Every other mode-R LP starts from the best
    support's basis.  ``counts``, when given, tallies the LPs solved and
    skipped.
    ``duals``, when given, holds each root chain's duals, and an alive
    point is tested against those of the chain it descends from.  Raises
    :class:`StoppingViolation` when a dual test fails,
    :class:`InapplicableError` on a zero image in mode L, and
    :class:`VertexCapError` when the vertex cap is hit.
    """
    spec = MODES[config.mode]
    if counts is None:
        counts = MembershipCounts()
    t_values: List[float] = []
    new_frontier: List[int] = []
    for vid, p in state.R:
        node = state.nodes[vid]
        z = scaled.matrix(p) @ state.vertices[vid]
        if is_zero_image(z):
            if spec.sign < 0:
                raise InapplicableError(
                    "a generator maps a vertex to zero; the antinorm "
                    "construction does not apply")
            t = math.inf
        else:
            if spec.balanced:
                t, start = support_bound(z, state.vertices, state.supports)
            else:
                t, start = one_vertex_bound(spec, z, state.vertices)[0], None
            if _is_dead(spec, t, config.remove_boundary):
                counts.skipped += 1
            else:
                t = _membership(spec, z, state, start, extension)
                counts.solved += 1
        t_values.append(t)
        if _is_dead(spec, t, config.remove_boundary):
            continue
        if duals is not None:
            j = stopping_check(config.mode, duals[node.chain], z)
            if j is not None:
                raise StoppingViolation(j, _path_word(state, vid, p, j),
                                        node.chain)
        # A revisit may be culled only when its membership value certifies
        # it on or inside the current polytope; otherwise it is a genuinely
        # new (if nearby) point and must stay alive.  The O(1) test on t
        # runs first, so few points pay for the scan of the vertices.
        if spec.sign * t >= spec.sign and _is_duplicate(z, state.vertices):
            continue
        state.nodes.append(VertexNode(vid, p, chain=node.chain))
        state.vertices = np.vstack((state.vertices, z))
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
    Without a completed iteration there is no evidence for the side the
    candidate does not give, so that side stays open: ``(rho, inf)`` in
    modes R/P and ``(0, rho)`` in mode L.
    """
    last = next((values for values in reversed(state.t_history) if values), [])
    # rho / t_N bounds the side the candidate does not give; without a
    # positive t_N that side stays open.
    if MODES[mode].sign > 0:
        t_N = min(last) if last else None
        upper = rho_per_step / t_N if t_N is not None and t_N > 0.0 else math.inf
        return rho_per_step, max(upper, rho_per_step), t_N
    t_N = max(last) if last else None
    lower = rho_per_step / t_N if t_N is not None and t_N > 0.0 else 0.0
    return min(lower, rho_per_step), rho_per_step, t_N


def _grow(family: MatrixFamily, scaled: MatrixFamily,
          roots: Sequence[CyclicRoot], config: RunConfig,
          duals, counts: MembershipCounts) -> RunOutcome:
    """Grow the polytope from the candidate's root chain and its twins'
    (``roots``, the candidate's first) until termination or the cap."""
    spec = MODES[config.mode]
    candidate = roots[0].candidate
    extension: Optional[ConeExtension] = None
    cone_sets: Optional[Tuple[Tuple[int, ...], ...]] = None
    probe_done = spec.sign > 0  # cone rays widen antinorm bodies only
    status, message = ITERATION_CAPPED, ""

    state = _initial_state(roots, family.size)
    while state.k < config.max_iterations:
        try:
            iterate(state, scaled, config, duals, extension, counts)
        except VertexCapError as exc:
            message = str(exc)
            break
        if not state.U:
            span = "linear" if spec.balanced else "positive"
            if spans_check(state.vertices, span):
                status = TERMINATED
            else:
                status = INAPPLICABLE
                message = ("the polytope stopped growing without the %s span "
                           "of the space, so the family is reducible and the "
                           "candidate value is not certified" % span)
            break
        if not probe_done and state.k >= PROBE_ITERS:
            probe_done = True
            sets = detect_near_boundary(state.vertices)
            if sets:
                cone_sets = tuple(tuple(s) for s in sets)
                negotiated = negotiate_cone(
                    scaled, sets, profile=root_profile(
                        [v for root in roots for v in root.vertices]))
                if negotiated is not None:
                    # Restart growth from the roots with the widened set.
                    extension = negotiated
                    cone_sets = negotiated.index_sets
                    state = _initial_state(roots, family.size)

    rho = candidate.rho_per_step
    value = bounds = t_N = certificate = None
    if status != INAPPLICABLE:
        lower, upper, t_N = final_bounds(state, config.mode, rho)
        bounds = (lower, upper)
    if status == TERMINATED:
        value, bounds = rho, (rho, rho)
        certificate = Certificate(
            version=CERT_VERSION, mode=config.mode,
            family_fingerprint=family_fingerprint(family), word=candidate.word,
            rho_per_step=rho, vertices=tuple(state.vertices),
            cone_H=tuple(extension.rays) if extension is not None else None,
            iterations=state.k, tolerance=BOUNDARY_TOL)
    return RunOutcome(
        status=status, mode=config.mode, value=value, bounds=bounds, t_N=t_N,
        certificate=certificate, iterations=state.k,
        vertex_count=len(state.nodes), candidate=candidate, cone=extension,
        cone_index_sets=cone_sets, message=message, root_words=state.words)


def run(family: MatrixFamily, config: RunConfig) -> RunOutcome:
    """Full pipeline: candidate search, polytope growth, restarts.

    Growth starts from the candidate's root chain and one chain per
    symmetric twin (:func:`symmetric_twins`).  Stopping violations
    trigger a restart with a provably better candidate, up to ten
    restarts.  Each time the restart machinery cannot improve the
    candidate (numerically marginal violations), the candidates are
    enumerated again with a cap two letters longer; when that gives a word
    already tried, the run continues with the stopping tests disabled,
    which preserves correctness at the cost of possibly slower
    termination.  The outcome counts the membership LPs solved and skipped
    over every growth.
    """
    counts = MembershipCounts()
    outcome = _run(family, config, counts)
    outcome.lps_solved, outcome.lps_skipped = counts.solved, counts.skipped
    return outcome


def _run(family: MatrixFamily, config: RunConfig,
         counts: MembershipCounts) -> RunOutcome:
    mode = config.mode
    spec = MODES.get(mode)
    if spec is None:
        raise ValueError("mode must be one of 'R', 'P', 'L'")
    if not spec.balanced and not family.is_nonnegative():
        raise ValueError("mode %s requires a nonnegative family" % mode)
    sense = "max" if spec.sign > 0 else "min"
    max_length = config.max_candidate_length
    if max_length is None:
        max_length = 6 if family.dim <= 10 else 4

    candidate = enumerate_candidates(family, max_length, sense)
    budget = _RESTART_BUDGET
    stopping = True
    tried = {candidate.word}
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
            roots = [build_cyclic_root(scaled, c, stopping)
                     for c in (candidate,) + symmetric_twins(family, candidate)]
            duals = [root.duals for root in roots]
            if any(chain_duals is None for chain_duals in duals):
                duals = None
            outcome = _grow(family, scaled, roots, config, duals, counts)
        except InapplicableError as exc:
            return RunOutcome(status=INAPPLICABLE, mode=mode,
                              candidate=candidate, message=str(exc))
        except StoppingViolation as violation:
            if budget <= 0:
                budget_exhausted = True
                stopping = False
                continue
            budget -= 1
            root = roots[violation.chain]
            try:
                replacement = restart_product(
                    family, root, (violation.j, violation.path), sense)
            except RestartFailedError:
                # The violation is numerically marginal: re-enumerate with a
                # longer cap, after every failed restart; a word already
                # tried (the candidate among them) ends the stopping tests.
                max_length += 2
                replacement = enumerate_candidates(family, max_length, sense)
            if replacement.word in tried:
                stopping = False
                continue
            tried.add(replacement.word)
            candidate = replacement
            continue
        outcome.budget_exhausted = budget_exhausted
        return outcome
