"""The compiled propagation backend and its pure-Python fallback story.

:class:`NativeBackend` is the compiled :class:`~repro.core.engine.backend.
PropagationBackend`: the whole propagation fixpoint — the clause/cube
examine-and-dequeue loop, eager literal assignment and backtrack over the
literal-indexed value array, universal reduction's ``≺`` test over the flat
:class:`~repro.core.prefix.PrefixTables`, and the pure-literal rule — runs
inside one C call (:mod:`repro._native`, built optionally by ``setup.py``).

**Identity.** The kernel is a port of the eager *counter* scheme, so it
inherits the reference semantics directly: same events on the same records
in the same order, hence the same decisions, trail, learned constraints and
outcome.  The wrapper keeps the Python :class:`~repro.core.engine.trail.
Trail` authoritative for everything the search layer reads (values, levels,
positions, reasons, the branching frontier): forwarded ``assign`` calls
update both sides, assignments made *inside* a native ``propagate()`` are
replayed onto the Python trail's lists by the kernel before the event is
returned, and ``backtrack`` unwinds both in one kernel call.  The kernel
also mirrors every variable's decision level, trail position and reason
record id, which is what lets it run the untraced clause/term resolution
analysis itself.  Only the per-record bookkeeping (occurrence lists,
satisfaction counters, the pure-literal sidecar) lives exclusively in C —
the Python ``Rec`` objects remain as identity tokens for the search layer
and the proof logger, addressed by ``Rec.rid``.

**Fallback.** When the extension is missing the backend cannot run.  The
engine-selection layer (:func:`repro.core.engine.search.resolve_backend`)
then degrades to the counters backend, the pure-Python reference this
kernel ports — *loudly*: a :class:`NativeFallbackWarning` is emitted and
the run's ``SolverStats.engine_fallback`` records ``"counters"`` so
benchmark rows and evalx records can never silently change engines.  Set
``REPRO_REQUIRE_NATIVE=1`` (or ``SolverConfig(require_native=True)``) to
turn the fallback into a structured :class:`NativeUnavailableError`.  A
kernel built from an older source (its ``KERNEL_VERSION`` differs from
:data:`KERNEL_VERSION`) counts as unavailable the same way, with a reason
naming both versions.
"""

from __future__ import annotations

import importlib
from typing import Iterable, Iterator, Optional, Tuple

from repro.core.engine.backend import (
    CONFLICT,
    MODEL,
    PURE,
    SOLUTION,
    PropagationBackend,
    Rec,
)
from repro.core.learning import AnalysisOutcome, Backjump, Fallback, Terminal

#: the kernel API this wrapper speaks; ``_native.c`` stamps the same number.
KERNEL_VERSION = 3

#: the rebuild command every unavailable-kernel message names.
BUILD_COMMAND = "python setup.py build_ext --inplace"


def load_kernel() -> Tuple[Optional[object], Optional[str]]:
    """Import ``repro._native`` and check its version stamp.

    Returns ``(module, None)``, or ``(None, reason)`` when the extension is
    missing or was built from another kernel version (a stale in-place
    build would otherwise load and fail mid-solve).
    """
    try:
        # importlib rather than `from repro import _native`: the latter
        # reports a missing extension as a bogus "partially initialized
        # module" error when this module is first pulled in during the
        # package's own init.
        module = importlib.import_module("repro._native")
    except ImportError as exc:  # pragma: no cover - depends on the build
        return None, str(exc)
    found = getattr(module, "KERNEL_VERSION", None)
    if found != KERNEL_VERSION:
        return None, (
            "stale kernel %s reports KERNEL_VERSION %s but this source "
            "expects %d; rebuild it with `%s`"
            % (getattr(module, "__file__", "repro._native"), found,
               KERNEL_VERSION, BUILD_COMMAND)
        )
    return module, None


_native, _IMPORT_ERROR = load_kernel()


class NativeFallbackWarning(RuntimeWarning):
    """``--engine native`` requested but the extension is unavailable."""


class NativeUnavailableError(RuntimeError):
    """The native kernel was *required* but cannot be imported.

    Carries ``reason`` (the import error) and renders actionable guidance:
    how to build the extension, and how to opt into the pure-Python
    fallback instead.
    """

    def __init__(self, reason: str):
        self.reason = reason
        super().__init__(
            "the native propagation kernel (repro._native) is unavailable: "
            "%s. Build it with `%s` (or "
            "`pip install -e .` with a C compiler on PATH), pick another "
            "engine (--engine counters), or unset "
            "REPRO_REQUIRE_NATIVE / require_native to accept the "
            "pure-Python fallback." % (reason, BUILD_COMMAND)
        )


def native_available() -> bool:
    """True when the compiled kernel imported successfully."""
    return _native is not None


def native_import_error() -> Optional[str]:
    """The import failure message, or None when the kernel is available."""
    return _IMPORT_ERROR


def kernel_version() -> Optional[int]:
    """The compiled kernel's version stamp, or None when unavailable."""
    return None if _native is None else int(_native.KERNEL_VERSION)


def kernel_path() -> Optional[str]:
    """The file the compiled kernel was loaded from, or None."""
    return None if _native is None else getattr(_native, "__file__", None)


def _outcome(result) -> AnalysisOutcome:
    """Map the kernel's ``analyze`` tuple to the learning-layer outcome."""
    kind, lits, level, assert_lit, shallow = result
    if kind == 2:
        return Backjump(lits, level, assert_lit, shallow)
    if kind == 0:
        return Terminal()
    return Fallback()


class _NativeCandidates:
    """Set facade over the kernel's pure-literal candidate flags.

    The checkpoint layer treats ``backend.pure_candidates`` as a mutable
    set (``capture`` sorts it, ``restore`` clears and refills it); the
    backends add to it during backtracking.  For the native backend the
    flags live in C, so this facade forwards the handful of set operations
    the rest of the system uses.
    """

    __slots__ = ("_core",)

    def __init__(self, core):
        self._core = core

    def __iter__(self) -> Iterator[int]:
        return iter(self._core.get_candidates())

    def __len__(self) -> int:
        return len(self._core.get_candidates())

    def __contains__(self, v: int) -> bool:
        return v in self._core.get_candidates()

    def add(self, v: int) -> None:
        self._core.add_candidate(v)

    def clear(self) -> None:
        self._core.set_candidates(())

    def update(self, vs: Iterable[int]) -> None:
        for v in vs:
            self._core.add_candidate(v)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "NativeCandidates(%r)" % (self._core.get_candidates(),)


class NativeBackend(PropagationBackend):
    """Compiled eager-counter propagation behind the backend interface."""

    name = "native"

    def __init__(self, formula, prefix, config, stats, trail, keeper):
        if _native is None:
            # resolve_backend() normally routes around this; the guard keeps
            # direct construction (backend_override in tests) honest too.
            raise NativeUnavailableError(_IMPORT_ERROR or "unknown import error")
        self._core = None
        self._recs: list = []
        super().__init__(formula, prefix, config, stats, trail, keeper)
        tab = self._tab
        core = _native.NativeCore(
            num_slots=trail.num_slots,
            level=tab.level,
            is_exist=[1 if e else 0 for e in tab.is_exist],
            din=tab.din,
            dout=tab.dout,
            track_pure=1 if config.pure_literals else 0,
        )
        for rec in self.orig_clauses:
            rec.rid = core.add_record(0, 1, 0, rec.lits, rec.prim, rec.sec)
            assert rec.rid == len(self._recs)
            self._recs.append(rec)
        core.set_candidates(sorted(self.pure_candidates))
        self.pure_candidates = _NativeCandidates(core)  # type: ignore[assignment]
        #: paranoid runs keep the two-step replay through Trail.push so the
        #: trail's double-assignment guard still sees every assignment.
        self._fast_replay = not config.paranoid
        self._core = core

    # -- install hooks ------------------------------------------------------

    def _install_clause(self, rec: Rec) -> None:
        # Matrix installation happens in bulk after the base constructor
        # (the kernel needs the prefix tables, which the base class builds);
        # orig_clauses already carries every record in installation order.
        pass

    def _install_learned_clause(self, rec: Rec) -> None:
        rec.rid = self._core.add_record(0, 0, 1, rec.lits, rec.prim, rec.sec)
        assert rec.rid == len(self._recs)
        self._recs.append(rec)

    def _install_learned_cube(self, rec: Rec) -> None:
        rec.rid = self._core.add_record(1, 0, 1, rec.lits, rec.prim, rec.sec)
        assert rec.rid == len(self._recs)
        self._recs.append(rec)

    # -- the backend interface ---------------------------------------------

    def assign(self, lit: int, reason: object) -> None:
        trail = self.trail
        trail.push(lit, reason)
        # decisions and pure literals carry no record: rid -1
        self._core.assign(
            lit, len(trail.level_start) - 1, getattr(reason, "rid", -1)
        )
        if len(trail.lits) > self.stats.max_trail:
            self.stats.max_trail = len(trail.lits)

    def backtrack(self, to_level: int) -> None:
        trail = self.trail
        target = trail.level_start[to_level + 1]
        # The kernel unwinds the trail's lists as it pops its own trail
        # (the C twin of Trail.unassign), like propagate_into.
        self._core.backtrack_into(
            target,
            trail.value,
            trail.lit_val,
            trail.reason,
            trail.block_index,
            trail.block_unassigned,
            trail.block_blockers,
            trail._deeper_desc,
        )
        trail.shrink(to_level, target)

    def propagate(self) -> Optional[Tuple[str, object]]:
        trail = self.trail
        stats = self.stats
        recs = self._recs
        if self._fast_replay:
            # The kernel replays its own push log onto the trail's lists
            # (the C twin of Trail._push_fast), so no per-literal Python
            # code runs at all on the propagation path.
            (
                event,
                rid,
                queue_head,
                max_trail,
                propagations,
                pure_literals,
                clause_visits,
                cube_visits,
            ) = self._core.propagate_into(
                trail.queue_head,
                trail.value,
                trail.lit_val,
                trail.level,
                trail.pos,
                trail.reason,
                trail.lits,
                trail.current_level,
                trail.block_index,
                trail.block_unassigned,
                trail.block_blockers,
                trail._deeper_desc,
                recs,
                PURE,
            )
        else:
            # Paranoid mode: replay through Trail.push so its invariant
            # guards (double-assignment check) stay on the hot path.
            (
                event,
                rid,
                pushes,
                queue_head,
                max_trail,
                propagations,
                pure_literals,
                clause_visits,
                cube_visits,
            ) = self._core.propagate(trail.queue_head, trail.current_level)
            push = trail.push
            for lit, tag, reason_rid in pushes:
                push(lit, PURE if tag == 1 else recs[reason_rid])
        trail.queue_head = queue_head
        stats.propagations += propagations
        stats.pure_literals += pure_literals
        stats.clause_visits += clause_visits
        stats.cube_visits += cube_visits
        if max_trail > stats.max_trail:
            stats.max_trail = max_trail
        if event == 1:
            return (CONFLICT, recs[rid])
        if event == 2:
            return (SOLUTION, recs[rid])
        if event == 3:
            return (MODEL, None)
        return None

    def apply_pure_literals(self) -> bool:  # pragma: no cover - guard only
        raise RuntimeError(
            "the native backend applies the pure-literal rule inside the "
            "compiled propagate(); there is no standalone entry point"
        )

    # -- learning/branching fast paths --------------------------------------
    # Exact C ports of the analysis-layer hot functions, exposed through the
    # optional-acceleration slots the search layer wires up (see
    # PropagationBackend for the pure-Python defaults of the contract).

    def reduce_clause_fast(self, lits) -> Tuple[int, ...]:
        """:func:`~repro.core.constraints.universal_reduce`, in C."""
        return self._core.reduce(lits, 0)

    def reduce_cube_fast(self, lits) -> Tuple[int, ...]:
        """:func:`~repro.core.constraints.existential_reduce`, in C."""
        return self._core.reduce(lits, 1)

    def native_model_cube(self) -> Tuple[int, ...]:
        """:func:`~repro.core.learning.build_model_cube`, in C.

        The kernel already holds the original clauses, the assignment and
        the trail positions, so the whole once-per-solution matrix sweep
        runs without touching a Python object."""
        return self._core.build_model_cube()

    def analyze_conflict_fast(self, conflict) -> AnalysisOutcome:
        """Untraced :func:`~repro.core.learning.analyze_conflict`, in C.

        Q-resolution over the kernel's records, with the kernel's mirrors
        of each variable's level, trail position and reason record."""
        return _outcome(self._core.analyze(conflict, 0))

    def analyze_solution_fast(self, model_cube) -> AnalysisOutcome:
        """Untraced :func:`~repro.core.learning.analyze_solution`, in C
        (term resolution, the dual of :meth:`analyze_conflict_fast`)."""
        return _outcome(self._core.analyze(model_cube, 1))

    def accelerated_picker(self, policy: str, keeper):
        """A compiled branching closure for ``policy``, or None.

        Only the default ``levelsub`` ranking has a C port; the ablation
        policies keep the pure-Python picker (they never run in the perf
        lane). The keeper's subtree maxima stay in Python, kept current by
        its incremental updates — the closure runs the full recompute only
        while the keeper is dirty, then ranks the available list in C
        against the keeper's own score arrays."""
        if policy != "levelsub":
            return None
        pick_levelsub = _native.pick_levelsub
        level = keeper._level
        score_pos = keeper.score_pos
        score_neg = keeper.score_neg
        child_max = keeper._child_max
        block_index = keeper._block_index

        def pick(available):
            if not available:
                return None
            if keeper._dirty:
                keeper._recompute()
            return pick_levelsub(
                available, level, score_pos, score_neg, child_max, block_index
            )

        return pick

    def accelerated_frontier_picker(self, policy: str, keeper, trail):
        """Fused ``available_vars`` + ``levelsub`` ranking, one C call.

        Reads the trail's incremental frontier counters and the keeper's
        score arrays in place; no candidate list is built. Same
        ``levelsub``-only restriction as :meth:`accelerated_picker`."""
        if policy != "levelsub":
            return None
        pick_frontier = _native.pick_frontier_levelsub
        block_vars = trail.block_vars
        block_unassigned = trail.block_unassigned
        block_blockers = trail.block_blockers
        value = trail.value
        level = keeper._level
        score_pos = keeper.score_pos
        score_neg = keeper.score_neg
        child_max = keeper._child_max
        block_index = keeper._block_index

        def pick():
            if keeper._dirty:
                keeper._recompute()
            return pick_frontier(
                block_vars, block_unassigned, block_blockers, value,
                level, score_pos, score_neg, child_max, block_index,
            )

        return pick
