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

The mode's record bounds an image's membership value without an LP
(:meth:`~polyrad.membership.Mode.bound`): the best single vertex from
below in P and from above in L, the best of the run's recent optimal
supports from below in R.  When that bound already puts the image inside
the body, it is recorded as the image's value and no LP runs; the verdict
is the LP's, since the bound lies on the inside of the LP value.

The optimal duals of the growth's recent LPs bound the value on the
other side, as facets (:func:`~polyrad.stores.facet_bound`): in mode R
the supports' facets from above, in mode L the clipped row duals of the
antinorm LPs from below; mode P keeps none.  Each growth has one store,
``PolytopeState.store``, made by :meth:`~polyrad.membership.Mode.store`.
An image that they put outside the body past ``BOUNDARY_TOL`` is alive,
and no duplicate, by the LP's reckoning too, so it gets no LP while the
polytope grows: its facet bound is recorded, and the image is kept as
deferred until the next iteration completes.  An alive image's value is
read only by the bounds of a capped run, from the last complete
iteration, so before :func:`final_bounds` a capped run solves that
iteration's deferred LPs, each over the vertices the image was
classified against and with the rays of the run's cone extension; a
terminated run's last iteration has no alive image.  So ``t_N`` and the
bounds of a capped run are LP values, and only ``t_N`` of a terminated
run can be a bound.  A mode-R LP that is solved starts from the best
support's basis, and its own support and facet join the growth's
:class:`~polyrad.stores.SupportStore`; the duals of a solved mode-L
LP join the growth's :class:`~polyrad.stores.FacetStore`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .candidates import (
    Candidate,
    CyclicRoot,
    EnumerationBudgetError,
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
)
from .stores import FacetStore, facet_bound

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
    ``vertices`` is the point of ``nodes[i]``.  ``store`` holds the
    facets of recent optimal LPs over ``vertices``, whose rows are only
    ever appended: the supports of mode-R LPs with their inverses and
    facets (:class:`~polyrad.stores.SupportStore`), or the clipped duals
    of mode-L LPs (:class:`~polyrad.stores.FacetStore`).  :func:`iterate`
    makes it on first use (:meth:`~polyrad.membership.Mode.store`), and
    mode P keeps none.

    ``t_history[k]`` holds iteration ``k``'s membership values, in the
    order of its pairs.  An image that a facet proved outside holds that
    facet bound, an upper bound on its value in mode R and a lower bound
    in mode L, except in the iteration that a capped run's
    :func:`final_bounds` reads, where :func:`_solve_deferred` has put its
    LP value.  ``deferred`` lists the last complete
    iteration's such images as ``(place, z, n, start)``: the image's place
    in that iteration, the image, the vertex count it was classified
    against and its LP start."""

    words: Tuple[Word, ...]
    nodes: List[VertexNode] = field(default_factory=list)
    vertices: np.ndarray = field(default_factory=lambda: np.empty((0, 0)))
    U: List[int] = field(default_factory=list)
    R: List[Tuple[int, int]] = field(default_factory=list)
    k: int = 0
    t_history: List[List[float]] = field(default_factory=list)
    store: Optional[FacetStore] = None
    deferred: List[Tuple[int, np.ndarray, int, object]] = field(
        default_factory=list)


@dataclass
class MembershipCounts:
    """Images whose membership LP a run solved, and images a one-vertex,
    support or facet bound settled without one; an image a facet proved
    outside moves to ``solved`` when a capped run solves its LP for its
    bounds."""

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
    # The last complete iteration's extreme membership value, an LP value
    # in a capped run; in a terminated run it can be a one-vertex bound
    # (P, L) or a support bound (R).
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
    # Membership LPs solved, and images settled by one vertex, a cached
    # support or a cached facet without an LP, over every growth of the
    # run (restarts included); an image whose LP a capped run solves for
    # its bounds counts as solved.
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


def _membership(spec: Mode, z, V: np.ndarray, start,
                extension: Optional[ConeExtension],
                store: Optional[FacetStore] = None) -> float:
    """The LP value of ``z`` over ``V`` with the extension's rays, from
    ``start``, :meth:`Mode.bound`'s over ``V`` (mode P's LP takes none); an
    optimal LP of mode R or L feeds ``store``, the growth's store of ``V``."""
    # Looked up by name per call, so that wrapping the module attribute works.
    if spec.sign < 0:
        if extension is not None and extension.rays:
            return antinorm_membership_ext(z, V, extension.matrix, store, start)
        return antinorm_membership_L(z, V, store, start)
    if spec.balanced:
        return norm_membership_R(z, V, start, store)
    return norm_membership_P(z, V)


def _is_dead(spec: Mode, t: float, remove_boundary: bool) -> bool:
    """Whether value ``t`` is inside the body (or on it, ``remove_boundary``)."""
    if remove_boundary:
        return spec.slack(t) <= BOUNDARY_TOL
    return spec.slack(t) < -BOUNDARY_TOL


def stopping_check(mode: str, duals, z) -> Optional[int]:
    """Smallest 1-based dual index whose pairing with ``z`` (``|s|`` in mode
    R) puts ``z`` outside the body, past 1 (short of it in L) by more than
    ``BOUNDARY_TOL``, or ``None`` when all pairings pass."""
    spec = MODES[mode]
    for j, dual in enumerate(duals, start=1):
        s = float(dual @ z)
        if spec.slack(abs(s) if spec.balanced else s) < -BOUNDARY_TOL:
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
    R) puts it inside the body.  A mode-R or mode-L image whose facet
    bound (:func:`~polyrad.stores.facet_bound`) puts it outside is alive
    without an LP; its facet bound is recorded and it joins
    ``state.deferred`` (:func:`_solve_deferred`).  Every other LP takes the
    start that came with the bound; an optimal LP of mode R or L feeds the
    growth's store.  ``counts``, when given, tallies the LPs solved and skipped.
    ``duals``, when given, holds each root chain's duals, and an alive
    point is tested against those of the chain it descends from.  Raises
    :class:`StoppingViolation` when a dual test fails,
    :class:`InapplicableError` on a zero image in mode L, and
    :class:`VertexCapError` when the vertex cap is hit.
    """
    spec = MODES[config.mode]
    if counts is None:
        counts = MembershipCounts()
    store = state.store
    if store is None:
        store = state.store = spec.store()
    t_values: List[float] = []
    deferred: List[Tuple[int, np.ndarray, int, object]] = []
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
            t, start = spec.bound(z, state.vertices, store)
            if _is_dead(spec, t, config.remove_boundary):
                counts.skipped += 1
            elif store is not None and spec.slack(t_far := facet_bound(
                    z, state.vertices, store)) > BOUNDARY_TOL:
                # Outside past the boundary: alive and no duplicate, so its
                # LP waits until a capped run's final_bounds reads it.
                deferred.append((len(t_values), z, len(state.nodes), start))
                t = t_far
                counts.skipped += 1
            else:
                t = _membership(spec, z, state.vertices, start, extension, store)
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
        if spec.slack(t) <= 0.0 and _is_duplicate(z, state.vertices):
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
    state.deferred = deferred


def _solve_deferred(state: PolytopeState, spec: Mode,
                    extension: Optional[ConeExtension],
                    counts: MembershipCounts) -> None:
    """Put the LP value of every image of the last complete iteration that
    a facet proved outside in place of its facet bound, each over the
    vertices it was classified against, with the extension's rays, from
    the start it had then."""
    for place, z, n, start in state.deferred:
        state.t_history[-1][place] = _membership(
            spec, z, state.vertices[:n], start, extension)
        counts.solved += 1
        counts.skipped -= 1
    state.deferred = []


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
            if spans_check(state.vertices, spec.span):
                status = TERMINATED
            else:
                status = INAPPLICABLE
                message = ("the polytope stopped growing without the %s span "
                           "of the space, so the family is reducible and the "
                           "candidate value is not certified" % spec.span)
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
        _solve_deferred(state, spec, extension, counts)
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
    candidate (no crossing within the letter bound of
    :func:`restart_product`, a restart word whose product overflows, or
    no strict improvement), the candidates are enumerated again with a
    cap two letters longer; when that gives a word already tried, or the
    longer cap exceeds the enumeration budget, the run continues with the
    current candidate and the stopping tests disabled, which preserves
    correctness at the cost of possibly slower termination.  The outcome
    counts the membership LPs solved and skipped over every growth.
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
    max_length = config.max_candidate_length
    if max_length is None:
        max_length = 6 if family.dim <= 10 else 4

    candidate = enumerate_candidates(family, max_length, spec.sense)
    budget = _RESTART_BUDGET
    stopping = True
    tried = {candidate.word}
    budget_exhausted = False

    while True:
        if spec.sense == "min" and candidate.rho == 0.0:
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
                    family, root, (violation.j, violation.path), spec.sense)
            except RestartFailedError:
                # Re-enumerate with a longer cap after every failed restart;
                # a word already tried, or an enumeration over its budget
                # (which keeps the candidate), ends the stopping tests.
                max_length += 2
                try:
                    replacement = enumerate_candidates(family, max_length, spec.sense)
                except EnumerationBudgetError:
                    replacement = candidate
            if replacement.word in tried:
                stopping = False
                continue
            tried.add(replacement.word)
            candidate = replacement
            continue
        outcome.budget_exhausted = budget_exhausted
        return outcome
