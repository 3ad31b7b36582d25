"""Estimation sessions: amortized Monte-Carlo OCQA over one instance.

:func:`repro.approx.fpras.fpras_ocqa` answers a single ``P_{M_Σ,Q}(D, c̄)``
question per call and pays the full setup cost every time: the block
decomposition is recomputed, the CRS counts re-derived, and — far worse — a
fresh stream of sampled repairs is drawn even when fifty candidate answers
share the same database.  :class:`EstimationSession` binds one
``(D, Σ, M_Σ)`` triple and amortizes all of that:

* **structural caches** — the block decomposition (Lemma 5.2) is computed
  once and shared by every sampler the session builds; the CRS counting
  DPs (Lemma C.1) are memoized process-wide already and hit warm.
* **witness caches** — for each ``(Q, c̄)`` the session enumerates the
  homomorphism images ``h(Q)`` with ``h(x̄) = c̄`` once, over ``D``.  A
  sampled repair ``S ⊆ D`` satisfies ``c̄ ∈ Q(S)`` iff it contains one of
  the inclusion-minimal images, so per-sample evaluation drops from a
  fresh backtracking join to a few subset tests.
* **the interned kernel** — the session interns ``D`` once into an
  :class:`~repro.core.interning.InstanceIndex` (dense fact ids), samplers
  draw survivor *id bitmasks* without constructing ``Operation`` or
  ``Database`` objects, and the minimal witness images become bitmasks too
  — "repair entails answer" is the integer subset test
  ``w & s == w``.
* **shared sample pools** — :class:`SamplePool` materializes one seeded
  stream of sampled repairs lazily; every request evaluates against the
  prefix it needs, so ``N`` requests cost one sampling pass plus ``N``
  cheap evaluations instead of ``N`` independent Monte-Carlo runs.
* **the vectorized sample plane** — seed-driven pools
  (:meth:`EstimationSession.pool_for_seed`, i.e. everything
  :func:`~repro.engine.batch.batch_estimate` builds) of the
  block-structured generators (the ``M_ur``/``M_us`` families) draw whole
  batches at once through :mod:`repro.sampling.vectorized`: samples live
  in a packed ``(S, ceil(n/64)) uint64`` bitset matrix and witness hits
  are counted with array reductions instead of per-sample Python tests.
  The generator alone picks the plane: the ``M_uo`` walk has no vector
  plane and stays on the scalar one, and so does every
  ``random.Random``-driven pool (:meth:`EstimationSession.pool`).  The
  plane never changes *what* is computed, only how fast.

Determinism contracts, one per plane:

* **scalar** — a pool driven by a ``random.Random`` (``session.pool(rng)``)
  draws the exact stream a per-call run seeded identically would, so
  pooled estimates are *bit-for-bit identical* to per-call
  :func:`~repro.approx.fpras.fpras_ocqa` results under the same seed
  (``tests/test_engine.py`` asserts this).
* **vector** — a vector pool's batch ``b`` is a pure function of
  ``(instance structure, seed, b, batch size)`` via seeded
  ``numpy.random.SeedSequence`` substreams (contract spelled out in
  :mod:`repro.sampling.rng`); the stream is deliberately distinct from
  the scalar one — equal in distribution, reproducible per seed, and
  decode-parity-checked against the scalar mask construction
  (``tests/test_vectorized.py``) — so vector runs replay vector runs
  bit-for-bit, while cross-plane runs agree statistically, not
  sample-for-sample.

Two layers sit on top of the fixed estimators:

* **adaptive estimation** — :meth:`EstimationSession.estimate_adaptive`
  runs a sequential early-stopping estimator
  (:mod:`repro.approx.adaptive`) over the pool prefix, and
  :meth:`EstimationSession.estimate_adaptive_many` schedules many such
  estimators in doubling rounds over one shared pool (its length is the
  slowest stopping time, not the sum);
* **persistence** — an attached :class:`~repro.engine.store.CacheEntry`
  makes decompositions, possibility verdicts, positivity bounds and the
  pool's sample prefix survive the process
  (:meth:`EstimationSession.cached_pool` resumes the stream bit-for-bit).

Scope enforcement is unchanged: combinations outside the paper's positive
results raise :class:`~repro.approx.fpras.FPRASUnavailable` with the same
messages as the per-call API.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Callable, Iterable, Sequence

from ..approx.adaptive import AdaptiveResult, SequentialEstimator
from ..approx.bounds import (
    rrfreq_lower_bound,
    singleton_frequency_lower_bound,
    srfreq_lower_bound,
    uo_singleton_fd_lower_bound,
)
from ..approx.intervals import ConfidenceInterval
from ..approx.montecarlo import (
    EstimateResult,
    chernoff_sample_size,
    fixed_estimate_from_total,
    fixed_sample_estimate,
    stopping_rule_estimate,
)
from ..chains.generators import (
    MarkovChainGenerator,
    UniformOperations,
    UniformRepairs,
    UniformSequences,
)
from ..core.blocks import BlockDecomposition, block_decomposition
from ..core.database import Database
from ..core.dependencies import FDSet
from ..core.facts import Fact
from ..core.interning import InstanceIndex
from ..core.queries import ConjunctiveQuery, QueryError, _bind_answer
from ..exact.possibility import image_is_consistent
from ..sampling import vectorized as vectorized_plane
from ..sampling.operations_sampler import UniformOperationsSampler
from ..sampling.repair_sampler import RepairSampler
from ..sampling.rng import resolve_rng
from ..sampling.sequence_sampler import SequenceSampler

if TYPE_CHECKING:  # pragma: no cover - type-only (store imports session's pool)
    from .store import CacheEntry


def _unavailable(message: str) -> RuntimeError:
    # Deferred import: fpras.py routes through this module, so the class
    # stays at its public home without a circular module-level import.
    from ..approx.fpras import FPRASUnavailable

    return FPRASUnavailable(message)


#: Samples per vector-plane batch: each batch is one seeded substream
#: (and one store row group); the value is part of the vector stream's
#: reproducibility contract, so changing it re-keys warm vector pools.
DEFAULT_BATCH_SIZE = 512


class SamplePool:
    """A lazily materialized, seeded stream of sampled repairs.

    Samples are grown on demand; request ``i`` evaluates against positions
    ``0 .. n_i`` of the *same* stream.  Because every request reads from
    position zero, a pooled estimate consumes exactly the prefix a fresh
    run (seeded like the pool) would draw — which is what makes pooled
    results reproducible.

    Replay requires retention: the pool keeps every drawn sample for its
    lifetime (unlike the per-call path, which streams and discards).  For
    adaptive ``dklr`` requests on near-zero probabilities, pass
    ``max_samples`` to bound the prefix — an unbounded stopping-rule run
    would grow the pool without limit.

    Samples are id *bitmasks* over the pool's
    :class:`~repro.core.interning.InstanceIndex` (one ``int`` per sample,
    bit ``i`` = fact ``i`` survives): :meth:`mask_at` is the hot-path
    accessor, and :meth:`sample_at` reconstructs fact-set objects on
    demand — so holding ``n`` samples costs ``n`` ints, not ``n``
    databases.

    **Scalar pools** call ``draw`` (one mask per call) for each new
    sample.  ``preloaded`` warm-starts the stream with masks persisted by
    a :class:`~repro.engine.store.CacheEntry`; new draws then continue
    past the preloaded prefix, so the caller must hand ``draw`` an RNG
    restored to the state recorded after the last persisted draw.

    **Vector pools.**  Constructed with a ``plane``
    (:mod:`repro.sampling.vectorized`) instead of a ``draw`` callable,
    the pool materializes whole batches of ``batch_size`` samples at a
    time and additionally keeps the plane's packed ``uint64`` bitset
    rows (:meth:`packed_prefix`), which the session's batched witness
    evaluation reduces with array ops.  ``preloaded_rows`` warm-starts
    them with whole persisted batches; drawing resumes by batch index
    (the substreams need no state).  All scalar accessors
    (:meth:`mask_at`, :meth:`mask_prefix`, :meth:`sample_at`,
    :meth:`prefix`) keep working unchanged — a vector pool is a drop-in
    backing, not a new interface.
    """

    def __init__(
        self,
        draw: Callable[[], int] | None = None,
        preloaded: Iterable[int] | None = None,
        *,
        index: InstanceIndex,
        plane=None,
        batch_size: int = DEFAULT_BATCH_SIZE,
        preloaded_rows=None,
    ):
        if (draw is None) == (plane is None):
            raise TypeError("exactly one of draw= and plane= is required")
        if plane is None and preloaded_rows is not None:
            raise TypeError("preloaded_rows= requires a vector plane")
        if plane is not None and preloaded is not None:
            raise TypeError("vector pools preload packed rows (preloaded_rows=)")
        if batch_size < 1:
            raise ValueError("batch_size must be positive")
        self._draw = draw
        self._plane = plane
        self._batch_size = batch_size
        self._index = index
        self._samples: list[int | None] = list(preloaded or ())
        self._rows = None  # capacity-doubling packed matrix (vector pools)
        self._rows_length = 0  # valid rows in ``_rows``
        self._mask_prefix_cache: tuple[int, tuple[int, ...]] = (0, ())
        self._facts_prefix_cache: tuple[int, tuple[frozenset[Fact], ...]] = (0, ())
        if preloaded_rows is not None:
            # Packed rows preload directly (the warm-cache fast path):
            # masks stay lazy placeholders like live-drawn batches.
            count = preloaded_rows.shape[0]
            if count % batch_size:
                raise ValueError(
                    "a vector pool's preloaded prefix must be whole batches"
                )
            if count:
                self._append_rows(preloaded_rows)
                self._samples = [None] * count

    @property
    def index(self) -> InstanceIndex:
        """The interning the masks refer to."""
        return self._index

    @property
    def backend(self) -> str:
        """``"vector"`` for plane-backed pools, ``"scalar"`` otherwise."""
        return "scalar" if self._plane is None else "vector"

    @property
    def plane(self):
        """The vector plane drawing this pool (``None`` for scalar pools)."""
        return self._plane

    @property
    def batch_size(self) -> int:
        """Samples per materialization step (1-at-a-time for scalar pools)."""
        return self._batch_size if self._plane is not None else 1

    def __len__(self) -> int:
        """Number of samples materialized so far (not a limit)."""
        return len(self._samples)

    def _materialize(self, index: int) -> None:
        if self._plane is None:
            while len(self._samples) <= index:
                self._samples.append(self._draw())
            return
        while len(self._samples) <= index:
            batch_index = len(self._samples) // self._batch_size
            _, rows = self._plane.draw_batch(batch_index, self._batch_size)
            self._append_rows(rows)
            # Masks are decoded from the packed rows lazily (the batched
            # hot path never needs them): placeholders keep positions.
            self._samples.extend([None] * self._batch_size)

    def _append_rows(self, rows) -> None:
        """Grow the packed matrix amortized-linearly (capacity doubling)."""
        count = rows.shape[0]
        needed = self._rows_length + count
        if self._rows is None or needed > self._rows.shape[0]:
            capacity = max(needed, 2 * (self._rows.shape[0] if self._rows is not None else 0))
            grown = vectorized_plane.np.empty((capacity, self._plane.words), dtype="<u8")
            if self._rows_length:
                grown[: self._rows_length] = self._rows[: self._rows_length]
            self._rows = grown
        self._rows[self._rows_length : needed] = rows
        self._rows_length = needed

    def _mask(self, position: int) -> int:
        """The ``position``-th mask, decoding a packed row on first touch."""
        value = self._samples[position]
        if value is None:
            row = self.packed_prefix(position + 1)[position]
            value = int.from_bytes(row.tobytes(), "little")
            self._samples[position] = value
        return value

    def _decode_region(self, start: int, stop: int) -> None:
        """Bulk-decode ``[start, stop)`` placeholder masks from packed rows."""
        if self._plane is None or all(
            value is not None for value in self._samples[start:stop]
        ):
            return
        rows = self.packed_prefix(stop)[start:stop]
        self._samples[start:stop] = vectorized_plane.unpack_rows(rows)

    def ensure(self, length: int) -> None:
        """Materialize the first ``length`` samples (chunk-wise on vector
        pools) — the batch planner pre-draws a group's longest fixed
        prefix through this in one pass."""
        if length > 0:
            self._materialize(length - 1)

    def mask_at(self, index: int) -> int:
        """The ``index``-th sample as an id bitmask."""
        self._materialize(index)
        return self._mask(index)

    def mask_prefix(self, length: int) -> Sequence[int]:
        """The first ``length`` samples as bitmasks.

        The bulk accessor for fixed-length evaluation loops.  The returned
        view is an immutable tuple, cached across calls: asking for the
        same (or a shorter) prefix again re-materializes nothing and
        copies nothing new — only genuine growth appends to the cache.
        """
        cached_length, cached = self._mask_prefix_cache
        if cached_length == length:
            return cached
        if length < cached_length:
            return cached[:length]
        self.ensure(length)
        self._decode_region(cached_length, length)
        cached = cached + tuple(self._samples[cached_length:length])
        self._mask_prefix_cache = (length, cached)
        return cached

    def packed_prefix(self, length: int):
        """The first ``length`` samples as packed ``uint64`` rows.

        Vector pools only (``None`` otherwise): the zero-copy view the
        batched witness evaluation reduces over.  Rows beyond ``length``
        from the final batch are drawn but not returned.
        """
        if self._plane is None:
            return None
        self.ensure(length)
        if self._rows is None:
            return vectorized_plane.np.zeros((0, self._plane.words), dtype="<u8")
        view = self._rows[:length]
        # Read-only like every other prefix view: a caller mutating the
        # backing matrix would silently corrupt samples, hit counts, and
        # the persisted cache.
        view.flags.writeable = False
        return view

    def sample_at(self, index: int) -> frozenset[Fact]:
        """The ``index``-th sample of the stream as a fact set, drawing as
        needed (the facts are reconstructed from the mask on demand)."""
        self._materialize(index)
        return self._index.facts_of_mask(self._mask(index))

    def prefix(self, length: int) -> Sequence[frozenset[Fact]]:
        """The first ``length`` samples as fact sets (materializing them).

        Cached like :meth:`mask_prefix`: repeated calls for a prefix that
        has not grown return the same immutable view instead of
        re-reconstructing every fact set.
        """
        cached_length, cached = self._facts_prefix_cache
        if cached_length == length:
            return cached
        if length < cached_length:
            return cached[:length]
        self.ensure(length)
        self._decode_region(cached_length, length)
        facts_of = self._index.facts_of_mask
        cached = cached + tuple(
            facts_of(mask) for mask in self._samples[cached_length:length]
        )
        self._facts_prefix_cache = (length, cached)
        return cached

    def materialized_samples(self) -> Sequence[int]:
        """Every sample drawn so far as id bitmasks — used by the cache
        store to persist scalar pools."""
        self._decode_region(0, len(self._samples))
        return self._samples


class EstimationSession:
    """Shared-state estimator for one ``(database, constraints, generator)``.

    All public entry points mirror the per-call FPRAS API; see the module
    docstring for the caching and determinism guarantees.
    """

    def __init__(
        self,
        database: Database,
        constraints: FDSet,
        generator: MarkovChainGenerator,
        cache: "CacheEntry | None" = None,
    ):
        self.database = database
        self.constraints = constraints
        self.generator = generator
        self.cache = cache
        self._decomposition: BlockDecomposition | None = None
        self._index: InstanceIndex | None = None
        self._witnesses: dict[
            tuple[ConjunctiveQuery, tuple], tuple[frozenset[Fact], ...]
        ] = {}
        self._witness_masks: dict[tuple[ConjunctiveQuery, tuple], tuple[int, ...]] = {}
        self._witness_plans: dict[
            tuple[ConjunctiveQuery, tuple], tuple[int, tuple[int, ...], bool]
        ] = {}
        self._possible: dict[tuple[ConjunctiveQuery, tuple], bool] = {}
        self._bounds: dict[ConjunctiveQuery, float] = {}

    # -- structural caches ---------------------------------------------------------

    def decomposition(self) -> BlockDecomposition:
        """The block decomposition of ``(D, Σ)``, computed once (primary keys).

        With a cache entry attached, a persisted decomposition is decoded
        instead of recomputed (and a fresh one is recorded for next time).
        """
        if self._decomposition is None:
            if self.cache is not None:
                self._decomposition = self.cache.get_decomposition()
            if self._decomposition is None:
                self._decomposition = block_decomposition(
                    self.database, self.constraints
                )
                if self.cache is not None:
                    self.cache.set_decomposition(self._decomposition)
        return self._decomposition

    def index(self) -> InstanceIndex:
        """The session's fact interning, built once per ``(D, Σ)``.

        For primary keys the index also carries the conflicting blocks as
        id-tuples (sharing :meth:`decomposition`); for the arbitrary-FD
        generators it interns facts and masks only.
        """
        if self._index is None:
            if self.constraints.is_primary_keys():
                self._index = InstanceIndex.of(
                    self.database, decomposition=self.decomposition()
                )
            else:
                self._index = InstanceIndex.of(self.database)
        return self._index

    def ensure_supported(self) -> None:
        """Raise :class:`FPRASUnavailable` outside the paper's positive results.

        The checks and messages match :func:`repro.approx.fpras.fpras_ocqa`
        exactly (Theorems 5.1(2), 6.1(2), 7.1(2), 7.5, E.1(2), E.8(2)).
        """
        generator = self.generator
        if isinstance(generator, UniformRepairs):
            if not self.constraints.is_primary_keys():
                raise _unavailable(
                    "M_ur beyond primary keys: no FPRAS for FDs unless RP = NP "
                    "(Theorem 5.1(3)); keys are open (Prop 5.5 rules out repair "
                    "counting)."
                )
        elif isinstance(generator, UniformSequences):
            if not self.constraints.is_primary_keys():
                raise _unavailable(
                    "M_us beyond primary keys is open; the paper conjectures no "
                    "FPRAS even for keys (Section 6)."
                )
        elif isinstance(generator, UniformOperations):
            if not generator.singleton_only and not self.constraints.all_keys():
                raise _unavailable(
                    "M_uo with non-key FDs: the target probability can be "
                    "exponentially small (Prop D.6), so Monte Carlo cannot give "
                    "an FPRAS; use M_uo,1 (Theorem 7.5) instead."
                )
        else:
            raise _unavailable(
                f"no FPRAS dispatch for generator {generator.name!r}"
            )

    def sampler(self, rng: random.Random | None = None):
        """A sampler for the session's generator, reusing cached structure."""
        self.ensure_supported()
        rng = resolve_rng(rng)
        singleton = self.generator.singleton_only
        if isinstance(self.generator, UniformRepairs):
            return RepairSampler(
                self.database,
                self.constraints,
                singleton,
                rng,
                decomposition=self.decomposition(),
                index=self.index(),
            )
        if isinstance(self.generator, UniformSequences):
            return SequenceSampler(
                self.database,
                self.constraints,
                singleton,
                rng,
                decomposition=self.decomposition(),
                index=self.index(),
            )
        return UniformOperationsSampler(self.database, self.constraints, singleton, rng)

    def _draw_mask(self, rng: random.Random | None) -> Callable[[], int]:
        """A thunk drawing one sampled repair as an id bitmask.

        The block-structured samplers draw masks natively (no
        ``Operation``/``Database`` objects per draw); the ``M_uo`` walk
        draws objects and interns the result.
        """
        sampler = self.sampler(rng)
        if isinstance(sampler, (RepairSampler, SequenceSampler)):
            return sampler.sample_mask
        index = self.index()
        return lambda: index.mask_of(sampler.sample().facts)

    def pool(self, rng: random.Random | None = None) -> SamplePool:
        """One shared, lazily grown sample stream for this session.

        The pool stores compact id bitmasks (one ``int`` per sample) over
        the session's :meth:`index`; fact-set views are reconstructed on
        demand by :meth:`SamplePool.sample_at`.  ``random.Random``-driven
        pools always run on the *scalar* plane — they carry the
        bit-for-bit per-call parity contract; seed-driven callers wanting
        the vector plane go through :meth:`pool_for_seed` or
        :meth:`vector_pool`.
        """
        return SamplePool(self._draw_mask(resolve_rng(rng)), index=self.index())

    def _vector_generator(self) -> bool:
        """Whether the generator is block-structured (``M_ur``/``M_us``
        families) — the ones with a vector plane; the ``M_uo`` walk has
        none."""
        return isinstance(self.generator, (UniformRepairs, UniformSequences))

    def vector_plane(self, seed: int | None = None):
        """A vectorized sample plane for this session's generator.

        One :class:`~repro.sampling.vectorized.VectorRepairPlane` /
        :class:`~repro.sampling.vectorized.VectorSequencePlane` over the
        session's interning, seeded per the plane's substream contract.
        Also the handle the decode-parity harness uses: a fresh plane with
        the same seed re-draws any pool batch exactly.
        """
        self.ensure_supported()
        singleton = self.generator.singleton_only
        if isinstance(self.generator, UniformRepairs):
            return vectorized_plane.VectorRepairPlane(self.index(), singleton, seed)
        if isinstance(self.generator, UniformSequences):
            return vectorized_plane.VectorSequencePlane(self.index(), singleton, seed)
        raise ValueError(
            f"no vector plane for generator {self.generator.name!r}"
        )

    def vector_pool(
        self,
        seed: int | None = None,
        batch_size: int = DEFAULT_BATCH_SIZE,
    ) -> SamplePool:
        """A vector-plane pool drawing in packed batches."""
        return SamplePool(
            plane=self.vector_plane(seed),
            index=self.index(),
            batch_size=batch_size,
        )

    def pool_for_seed(self, seed: int | None) -> SamplePool:
        """A pool for an integer seed, on the plane the generator picks.

        The entry point :func:`~repro.engine.batch.batch_estimate` uses:
        the vector plane for the ``M_ur``/``M_us`` families, otherwise a
        scalar pool seeded ``random.Random(seed)``.
        """
        if self._vector_generator():
            return self.vector_pool(seed)
        return self.pool(random.Random(seed) if seed is not None else None)

    def cached_pool(self, seed: int | None) -> SamplePool:
        """A pool warm-started from the session's cache entry (if possible).

        Persisted samples preload the stream and drawing resumes where the
        cold run stopped — scalar pools restore the recorded
        ``random.Random`` state, vector pools resume by batch index (their
        substreams need no state) — so warm draws continue the cold run's
        stream bit-for-bit.  Without a cache entry or a seed this degrades
        to a plain :meth:`pool_for_seed` (an unseeded stream is not
        reproducible, so persisting it would be meaningless).

        A persisted prefix from the *other* plane cannot be extended, so
        it is discarded and redrawn on the generator's plane.
        """
        if self.cache is None or seed is None:
            return self.pool_for_seed(seed)
        if self._vector_generator():
            return self._cached_vector_pool(seed)
        return self._cached_scalar_pool(seed)

    def _cached_scalar_pool(self, seed: int) -> SamplePool:
        rng = random.Random(seed)
        if self.cache.sample_backend() == "vector":
            # A vector-plane prefix cannot be extended by random.Random
            # draws; drop it so the entry is rewritten on this plane.
            self.cache.discard_samples()
        preloaded = self.cache.preload_sample_masks()
        state = self.cache.rng_state() if preloaded else None
        if state is not None:
            try:
                rng.setstate(state)
            except (TypeError, ValueError, OverflowError):
                # Shape-valid but meaningless state vectors (tampering)
                # raise any of these from the C implementation.
                state = None
                rng = random.Random(seed)
        if preloaded and state is None:
            # Samples without a usable post-draw RNG state cannot be
            # extended consistently: drop them so the entry is rewritten.
            self.cache.discard_samples()
            preloaded = []
        shared = SamplePool(
            self._draw_mask(rng), preloaded=preloaded, index=self.index()
        )
        self.cache.attach_pool(shared, rng)
        return shared

    def _cached_vector_pool(self, seed: int) -> SamplePool:
        rows = self.cache.sample_word_rows()
        if rows:
            if (
                self.cache.sample_backend() != "vector"
                or self.cache.sample_batch() != DEFAULT_BATCH_SIZE
                or len(rows) % DEFAULT_BATCH_SIZE
            ):
                # A scalar prefix, a foreign batch size, or a torn batch:
                # none of them resume a substream — redraw cleanly.
                self.cache.discard_samples()
                rows = []
        preloaded_rows = None
        if rows:
            # The on-disk word row IS the matrix row: load it without any
            # bignum round trip (masks decode lazily if ever needed).
            preloaded_rows = vectorized_plane.np.array(rows, dtype="<u8")
        pool = SamplePool(
            plane=self.vector_plane(seed),
            preloaded_rows=preloaded_rows,
            index=self.index(),
            batch_size=DEFAULT_BATCH_SIZE,
        )
        self.cache.attach_pool(pool, None)
        return pool

    # -- per-(query, answer) caches --------------------------------------------------

    def positivity_bound(self, query: ConjunctiveQuery) -> float:
        """The paper's positivity lower bound for this generator and query.

        Mirrors the per-call dispatch: Lemmas 5.3 / 6.3 for ``M_ur`` /
        ``M_us``, Lemmas E.3 / E.10 for their singleton variants, Lemma D.8
        for ``M_uo,1``; for plain ``M_uo`` the pragmatic ``rrfreq`` floor
        stands in for Prop 7.3's astronomically small polynomial.
        """
        cached = self._bounds.get(query)
        if cached is not None:
            return cached
        self.ensure_supported()
        if self.cache is not None:
            persisted = self.cache.get_bound(query)
            if persisted is not None:
                self._bounds[query] = persisted
                return persisted
        singleton = self.generator.singleton_only
        if isinstance(self.generator, UniformRepairs):
            bound = (
                singleton_frequency_lower_bound(self.database, query)
                if singleton
                else rrfreq_lower_bound(self.database, query)
            )
        elif isinstance(self.generator, UniformSequences):
            bound = (
                singleton_frequency_lower_bound(self.database, query)
                if singleton
                else srfreq_lower_bound(self.database, query)
            )
        elif singleton:
            bound = uo_singleton_fd_lower_bound(self.database, query)
        else:
            bound = rrfreq_lower_bound(self.database, query)
        value = float(bound)
        self._bounds[query] = value
        if self.cache is not None:
            self.cache.set_bound(query, value)
        return value

    def witnesses(
        self, query: ConjunctiveQuery, answer: tuple = ()
    ) -> tuple[frozenset[Fact], ...]:
        """Inclusion-minimal homomorphism images ``h(Q)`` with ``h(x̄) = c̄``.

        Every sampled repair is a subset of ``D``, so a sample ``S`` entails
        the answer iff ``w ⊆ S`` for some witness ``w`` — evaluated once per
        sample with subset tests instead of a backtracking join.  An empty
        tuple means no homomorphism exists (probability zero everywhere).
        """
        key = (query, answer)
        cached = self._witnesses.get(key)
        if cached is None:
            cached = self._compute_witnesses(query, answer)
            self._witnesses[key] = cached
        return cached

    def _compute_witnesses(
        self, query: ConjunctiveQuery, answer: tuple
    ) -> tuple[frozenset[Fact], ...]:
        if len(answer) != len(query.answer_variables):
            return ()
        # The same binding ``entails`` uses, so the witness semantics can
        # never drift from direct query evaluation.
        fixed = _bind_answer(query.answer_variables, answer)
        if fixed is None:
            return ()
        images = set()
        for homomorphism in query.homomorphisms(self.database, fixed=fixed):
            images.add(query.image(homomorphism))
        minimal = [
            image for image in images if not any(other < image for other in images)
        ]
        minimal.sort(key=lambda image: (len(image), sorted(map(str, image))))
        return tuple(minimal)

    def witness_masks(
        self, query: ConjunctiveQuery, answer: tuple = ()
    ) -> tuple[int, ...]:
        """The :meth:`witnesses` images as id bitmasks over :meth:`index`.

        A sample mask ``s`` entails the answer iff ``w & s == w`` for some
        witness mask ``w`` — the integer form of the subset test, cached per
        ``(query, answer)`` like the object witnesses themselves.
        """
        key = (query, answer)
        cached = self._witness_masks.get(key)
        if cached is None:
            index = self.index()
            cached = tuple(
                index.mask_of(witness) for witness in self.witnesses(query, answer)
            )
            self._witness_masks[key] = cached
        return cached

    def is_possible(self, query: ConjunctiveQuery, answer: tuple = ()) -> bool:
        """Cached polynomial zero-test (see :mod:`repro.exact.possibility`).

        ``P > 0`` under every uniform generator iff some witness image is
        conflict-free; pairwise consistency is closed under subsets, so
        checking the inclusion-minimal witnesses is equivalent.
        """
        key = (query, answer)
        cached = self._possible.get(key)
        if cached is None:
            if self.cache is not None:
                cached = self.cache.get_possible(query, answer)
            if cached is None:
                cached = any(
                    image_is_consistent(witness, self.constraints)
                    for witness in self.witnesses(query, answer)
                )
                if self.cache is not None:
                    self.cache.set_possible(query, answer, cached)
            self._possible[key] = cached
        return cached

    @staticmethod
    def _entails_sample(
        witnesses: tuple[frozenset[Fact], ...], facts: frozenset[Fact]
    ) -> bool:
        return any(witness <= facts for witness in witnesses)

    @staticmethod
    def _entails_mask(witness_masks: tuple[int, ...], sample_mask: int) -> bool:
        return any(witness & sample_mask == witness for witness in witness_masks)

    def _witness_eval(
        self, query: ConjunctiveQuery, answer: tuple
    ) -> tuple[int, tuple[int, ...], bool]:
        """The witness masks classified for the hot loop (cached).

        Returns ``(singles, complexes, always)``: the OR-union of all
        single-fact witness masks (a sample hits one iff ``mask & singles``
        is non-zero — one AND for the whole group, the overwhelmingly
        common case for per-fact survival workloads), the remaining
        multi-fact witness masks (each needing its own subset test), and
        whether an *empty* witness exists (the query is entailed by every
        sample).  Both the scalar per-position tests and the batched
        column reductions consume this one classification.
        """
        key = (query, answer)
        plan = self._witness_plans.get(key)
        if plan is None:
            singles = 0
            complexes = []
            always = False
            for witness in self.witness_masks(query, answer):
                if witness == 0:
                    always = True
                elif witness & (witness - 1) == 0:
                    singles |= witness
                else:
                    complexes.append(witness)
            plan = (singles, tuple(complexes), always)
            self._witness_plans[key] = plan
        return plan

    def _evaluator(
        self, pool: SamplePool, query: ConjunctiveQuery, answer: tuple
    ) -> "_PoolEvaluator":
        """Hit evaluation of one request against one pool, plane-aware."""
        return _PoolEvaluator(self, pool, query, answer)

    # -- estimation ------------------------------------------------------------------

    def estimate(
        self,
        query: ConjunctiveQuery,
        answer: tuple = (),
        *,
        epsilon: float = 0.2,
        delta: float = 0.05,
        rng: random.Random | None = None,
        method: str = "auto",
        p_lower: float | None = None,
        max_samples: int | None = None,
    ) -> EstimateResult:
        """Per-call twin of :func:`~repro.approx.fpras.fpras_ocqa`.

        Draws a fresh sample stream from ``rng``; the result is bit-for-bit
        identical to the per-call API under the same seed, the caches only
        make it cheaper.
        """
        rng = resolve_rng(rng)
        draw_mask = self._draw_mask(rng)  # raises FPRASUnavailable first
        if not self.is_possible(query, answer):
            return self._certified_zero(epsilon, delta)
        masks = self.witness_masks(query, answer)

        def draw() -> float:
            return 1.0 if self._entails_mask(masks, draw_mask()) else 0.0

        return self._run(draw, query, epsilon, delta, method, p_lower, max_samples)

    def estimate_pooled(
        self,
        pool: SamplePool,
        query: ConjunctiveQuery,
        answer: tuple = (),
        *,
        epsilon: float = 0.2,
        delta: float = 0.05,
        method: str = "auto",
        p_lower: float | None = None,
        max_samples: int | None = None,
    ) -> EstimateResult:
        """Like :meth:`estimate`, but drawing from a shared :class:`SamplePool`.

        Each request reads the pool from position zero, so ``N`` pooled
        requests share one sampling pass instead of performing ``N``.  For
        a *scalar* pool built from a ``random.Random`` (:meth:`pool`) the
        result equals ``estimate(..., rng=random.Random(seed))`` under the
        same seed; vector pools are equally deterministic but follow their
        own substream contract (module docstring), so their results replay
        vector runs, not ``random.Random`` ones.
        """
        self.ensure_supported()
        if not self.is_possible(query, answer):
            return self._certified_zero(epsilon, delta)
        evaluator = self._evaluator(pool, query, answer)
        resolved, budget, bound = self._resolve_method(
            query, epsilon, delta, method, p_lower
        )
        if resolved == "fixed" and pool.backend == "vector":
            # The batched fixed path: one packed-prefix reduction instead
            # of ``budget`` per-position tests.  The hit count is the
            # exact float total ``fixed_sample_estimate`` would accumulate
            # from the same indicator stream, built into a result by the
            # same constructor.
            return fixed_estimate_from_total(
                evaluator.count(budget), budget, epsilon, delta
            )
        position = 0

        def draw() -> float:
            nonlocal position
            entailed = evaluator.flag(position)
            position += 1
            return 1.0 if entailed else 0.0

        if resolved == "fixed":
            return fixed_sample_estimate(draw, epsilon, delta, bound)
        return stopping_rule_estimate(draw, epsilon, delta, max_samples=max_samples)

    def estimate_many(
        self,
        requests: Iterable[tuple[ConjunctiveQuery, tuple]],
        *,
        epsilon: float = 0.2,
        delta: float = 0.05,
        method: str = "auto",
        rng: random.Random | None = None,
        max_samples: int | None = None,
        pool: SamplePool | None = None,
        mode: str = "fixed",
    ) -> list[EstimateResult | AdaptiveResult]:
        """Score many ``(query, answer)`` pairs against one shared pool.

        ``mode="fixed"`` (default) runs each request's classical estimator
        against the pool; ``mode="adaptive"`` instead runs all requests as
        concurrent sequential estimators scheduled in doubling rounds (see
        :meth:`estimate_adaptive_many`), ignoring ``method``.
        """
        if pool is None:
            pool = self.pool(rng)
        if mode == "adaptive":
            specs = [
                (query, answer, epsilon, delta, max_samples)
                for query, answer in requests
            ]
            return self.estimate_adaptive_many(pool, specs)
        if mode != "fixed":
            raise ValueError(f"unknown mode {mode!r} (use 'fixed' or 'adaptive')")
        return [
            self.estimate_pooled(
                pool,
                query,
                answer,
                epsilon=epsilon,
                delta=delta,
                method=method,
                max_samples=max_samples,
            )
            for query, answer in requests
        ]

    # -- adaptive estimation -----------------------------------------------------------

    def estimate_adaptive(
        self,
        query: ConjunctiveQuery,
        answer: tuple = (),
        *,
        epsilon: float = 0.2,
        delta: float = 0.05,
        rng: random.Random | None = None,
        pool: SamplePool | None = None,
        max_samples: int | None = None,
    ) -> AdaptiveResult:
        """Sequential early-stopping estimate of ``P_{M_Σ,Q}(D, c̄)``.

        Runs a :class:`~repro.approx.adaptive.SequentialEstimator` over the
        pool's prefix (a fresh ``rng``-seeded pool when none is given).  The
        (ε, δ) contract matches the fixed path — the estimator's fallback
        cap *is* the fixed Chernoff budget — but easy answers stop after a
        small fraction of it.  Reading the pool from position zero keeps
        adaptive runs replayable against fixed runs on the same seed.
        """
        if pool is None:
            pool = self.pool(rng)
        else:
            self.ensure_supported()
        (result,) = self.estimate_adaptive_many(
            pool, [(query, answer, epsilon, delta, max_samples)]
        )
        return result

    def adaptive_estimator(
        self,
        query: ConjunctiveQuery,
        epsilon: float,
        delta: float,
        max_samples: int | None = None,
    ) -> SequentialEstimator:
        """A sequential estimator for one request, with this query's bound.

        The single construction point for adaptive estimators — the batch
        planner rehearses through it for per-request error isolation, and
        :meth:`estimate_adaptive_many` builds the real ones through it, so
        the validated parameters can never drift apart.
        """
        return SequentialEstimator(
            epsilon,
            delta,
            p_lower=self.positivity_bound(query),
            max_samples=max_samples,
        )

    def estimate_adaptive_many(
        self,
        pool: SamplePool,
        specs: Sequence[tuple[ConjunctiveQuery, tuple, float, float, int | None]],
        *,
        initial_round: int = 64,
    ) -> list[AdaptiveResult]:
        """Run many sequential estimators against one pool in doubling rounds.

        ``specs`` rows are ``(query, answer, epsilon, delta, max_samples)``.
        Rounds double a shared position target (capped by the largest
        surviving estimator's own sample cap); every pending estimator
        consumes the same pool prefix up to the round target, with samples
        drawn on demand — so ``N`` concurrent adaptive requests cost one
        sampling pass whose length is the *maximum* (not the sum) of their
        stopping times, and nothing is drawn past the slowest stop.
        Certified-impossible answers never touch the pool, and results are
        identical to running :meth:`estimate_adaptive` per request against
        the same pool.
        """
        self.ensure_supported()
        results: list[AdaptiveResult | None] = [None] * len(specs)
        pending: list[list] = []  # [index, hit, estimator, position]
        for index, (query, answer, epsilon, delta, max_samples) in enumerate(specs):
            if not self.is_possible(query, answer):
                results[index] = self._certified_zero_adaptive(epsilon, delta)
                continue
            estimator = self.adaptive_estimator(query, epsilon, delta, max_samples)
            pending.append(
                [index, self._evaluator(pool, query, answer), estimator, 0]
            )
        target = initial_round
        while pending:
            goal = min(target, max(state[2].sample_cap for state in pending))
            still_pending = []
            for state in pending:
                index, evaluator, estimator, position = state
                while position < goal and not estimator.decided:
                    entailed = evaluator.flag(position)
                    position += 1
                    estimator.offer(1.0 if entailed else 0.0)
                state[3] = position
                if estimator.decided:
                    results[index] = estimator.result()
                else:
                    still_pending.append(state)
            pending = still_pending
            target *= 2
        return results  # type: ignore[return-value]  # every slot is filled above

    @staticmethod
    def _certified_zero_adaptive(epsilon: float, delta: float) -> AdaptiveResult:
        return AdaptiveResult(
            estimate=0.0,
            samples_used=0,
            epsilon=epsilon,
            delta=delta,
            method="possibility-zero",
            interval=ConfidenceInterval(
                lower=0.0, upper=0.0, confidence=1.0, method="possibility-zero"
            ),
            certified_zero=True,
        )

    def fixed_budget(
        self,
        query: ConjunctiveQuery,
        answer: tuple = (),
        *,
        samples: int = 10_000,
        rng: random.Random | None = None,
    ) -> EstimateResult:
        """Per-call twin of :func:`~repro.approx.fpras.fixed_budget_estimate`."""
        rng = resolve_rng(rng)
        draw_mask = self._draw_mask(rng)
        self._budget_witnesses(query, answer)
        masks = self.witness_masks(query, answer)
        hits = sum(
            1 for _ in range(samples) if self._entails_mask(masks, draw_mask())
        )
        return self._budget_result(hits, samples)

    def fixed_budget_pooled(
        self,
        pool: SamplePool,
        query: ConjunctiveQuery,
        answer: tuple = (),
        *,
        samples: int = 10_000,
    ) -> EstimateResult:
        """Fixed-budget estimate over a shared pool's first ``samples`` draws."""
        self.ensure_supported()
        self._budget_witnesses(query, answer)
        hits = self._evaluator(pool, query, answer).count(samples)
        return self._budget_result(hits, samples)

    def _budget_witnesses(
        self, query: ConjunctiveQuery, answer: tuple
    ) -> tuple[frozenset[Fact], ...]:
        # The budget estimators keep entails()'s arity error, which the
        # (ε, δ) path never reaches (its zero-test returns first).
        if len(answer) != len(query.answer_variables):
            raise QueryError(
                f"answer arity {len(answer)} does not match "
                f"|x̄| = {len(query.answer_variables)}"
            )
        return self.witnesses(query, answer)

    @staticmethod
    def _budget_result(hits: int, samples: int) -> EstimateResult:
        return EstimateResult(
            estimate=hits / samples,
            samples_used=samples,
            epsilon=float("nan"),
            delta=float("nan"),
            method="fixed-budget",
            certified_zero=(hits == 0),
        )

    @staticmethod
    def _certified_zero(epsilon: float, delta: float) -> EstimateResult:
        # The polynomial zero-test: no conflict-free image of the query
        # exists, so the probability is exactly 0 under every generator —
        # certify without spending a single sample.
        return EstimateResult(
            estimate=0.0,
            samples_used=0,
            epsilon=epsilon,
            delta=delta,
            method="possibility-zero",
            certified_zero=True,
        )

    def _resolve_method(
        self,
        query: ConjunctiveQuery,
        epsilon: float,
        delta: float,
        method: str,
        p_lower: float | None,
    ) -> tuple[str, int | None, float]:
        """``(resolved method, fixed budget or None, positivity bound)``.

        The one implementation of the ``auto`` dispatch — the estimate
        paths and the batch planner's chunked pre-draw both read it, so
        "which estimator will run, over how many samples" can never drift
        between them.
        """
        from ..approx.fpras import AUTO_FIXED_BUDGET

        bound = p_lower if p_lower is not None else self.positivity_bound(query)
        if method == "auto":
            budget = chernoff_sample_size(epsilon, delta, bound)
            method = "fixed" if budget <= AUTO_FIXED_BUDGET else "dklr"
        if method == "fixed":
            return "fixed", chernoff_sample_size(epsilon, delta, bound), bound
        if method == "dklr":
            return "dklr", None, bound
        raise ValueError(f"unknown method {method!r}")

    def _run(
        self,
        draw: Callable[[], float],
        query: ConjunctiveQuery,
        epsilon: float,
        delta: float,
        method: str,
        p_lower: float | None,
        max_samples: int | None,
    ) -> EstimateResult:
        resolved, _, bound = self._resolve_method(
            query, epsilon, delta, method, p_lower
        )
        if resolved == "fixed":
            return fixed_sample_estimate(draw, epsilon, delta, bound)
        return stopping_rule_estimate(draw, epsilon, delta, max_samples=max_samples)


class _PoolEvaluator:
    """Hit evaluation of one ``(query, answer)`` against one pool's prefix.

    The plane-aware replacement for the old per-position hit closures:

    * **vector pools** — hits are computed in whole batches with packed
      column reductions (:func:`repro.sampling.vectorized.batch_hit_flags`)
      and cached; :meth:`flag` serves positions out of the evaluated
      prefix, growing it one pool batch at a time, and :meth:`count` folds
      a known-length prefix in one reduction.
    * **scalar pools** — per-position mask tests (or one pass over the
      mask prefix for :meth:`count`).
    """

    __slots__ = (
        "_pool",
        "_always",
        "_singles",
        "_complexes",
        "_witness_rows",
        "_flags",
        "_evaluated",
    )

    def __init__(
        self,
        session: EstimationSession,
        pool: SamplePool,
        query: ConjunctiveQuery,
        answer: tuple,
    ):
        self._pool = pool
        self._flags = None
        self._witness_rows = None
        self._evaluated = 0
        self._singles, self._complexes, self._always = session._witness_eval(
            query, answer
        )

    # -- batched path (vector pools) ---------------------------------------------------

    def _ensure_flags(self, length: int) -> None:
        if self._evaluated >= length:
            return
        numpy = vectorized_plane.np
        rows = self._pool.packed_prefix(length)
        if self._witness_rows is None:
            # Packed once per evaluator: the witness rows are fixed for
            # its lifetime, so chunked growth pays only the reductions.
            self._witness_rows = vectorized_plane.pack_witnesses(
                self._singles, self._complexes, rows.shape[1]
            )
        fresh = vectorized_plane.batch_hit_flags(
            rows[self._evaluated :],
            self._singles,
            self._complexes,
            self._always,
            packed=self._witness_rows,
        )
        if self._flags is None or length > self._flags.shape[0]:
            # Capacity doubling: chunked dklr/adaptive growth stays
            # amortized-linear instead of re-concatenating per chunk.
            capacity = max(
                length, 2 * (self._flags.shape[0] if self._flags is not None else 0)
            )
            grown = numpy.zeros(capacity, dtype=bool)
            if self._evaluated:
                grown[: self._evaluated] = self._flags[: self._evaluated]
            self._flags = grown
        self._flags[self._evaluated : length] = fresh
        self._evaluated = length

    # -- public accessors --------------------------------------------------------------

    def flag(self, position: int) -> bool:
        """Whether sample ``position`` entails the answer."""
        if self._always:
            # An empty witness answers without touching the pool.
            return True
        if self._pool.backend == "vector":
            if position >= self._evaluated:
                chunk = self._pool.batch_size
                self._ensure_flags(((position // chunk) + 1) * chunk)
            return bool(self._flags[position])
        mask = self._pool.mask_at(position)
        if mask & self._singles:
            return True
        return EstimationSession._entails_mask(self._complexes, mask)

    def count(self, length: int) -> int:
        """Hits among the first ``length`` samples (batched when possible)."""
        if self._always:
            # Empty witness: every sample hits, so nothing needs drawing.
            # The scalar plane still materializes (the PR 3 fixed-budget
            # path always did — preserved bit-for-bit); the vector plane
            # has no such history and skips the wasted batches.
            if self._pool.backend != "vector":
                self._pool.ensure(length)
            return length
        if self._pool.backend == "vector":
            self._ensure_flags(length)
            return int(self._flags[:length].sum())
        prefix = self._pool.mask_prefix(length)
        singles = self._singles
        complexes = self._complexes
        if not complexes:
            return sum(1 for mask in prefix if mask & singles)
        return sum(
            1
            for mask in prefix
            if mask & singles or EstimationSession._entails_mask(complexes, mask)
        )
