"""Persistent cross-run cache for estimation sessions.

Every process so far started cold: block decompositions, possibility
verdicts, positivity bounds and — most expensively — the sampled-repair
streams were recomputed on each CLI rerun, bench iteration or CI job.
:class:`CacheStore` persists them on disk so a repeated workload
warm-starts for free.

Layout: one JSON file per cache entry under the store directory, named by
the entry key — the SHA-256 content hash of the canonical serialization of
``(database, Σ, generator, seed)``.  Anything that could change a result
changes the key, so a hit can never replay stale state.  (The seed is part
of the key because the sample stream depends on it; the seed-independent
structural fields are deliberately duplicated across seeds — one key must
cover everything any persisted field could depend on.)  Each entry holds:

* ``version`` — the store format version; a mismatch invalidates the
  entry;
* ``decomposition`` — the block decomposition (Lemma 5.2), as
  ``[{relation, group, facts}]`` rows;
* ``possibility`` — the cached polynomial zero-test verdicts, keyed by
  ``"<query>|<answer JSON>"``;
* ``bounds`` — positivity lower bounds, keyed by the query text;
* ``samples`` + ``backend`` + ``batch`` + ``rng_state`` — the materialized
  prefix of the shared :class:`~repro.engine.session.SamplePool` as
  **packed word rows**: each sample is a list of
  ``ceil(n_facts / 64)`` unsigned 64-bit words, word ``w`` holding fact
  ids ``64w .. 64w + 63`` of the sample's id bitmask (the vector plane's
  on-disk row *is* its in-memory ``uint64`` matrix row, and a scalar
  mask packs to the same words).  ``backend`` records which plane drew
  the prefix — the generator's plane: ``"vector"`` for the ``M_ur``/``M_us``
  families, ``"scalar"`` for ``M_uo``.  ``"scalar"`` rows resume through
  the persisted ``random.Random`` state *after* the last draw;
  ``"vector"`` rows resume by batch index (``batch`` is the plane's batch
  size — part of its substream contract — and ``rng_state`` is
  ``null``).  A prefix from the plane the generator does not draw on
  is discarded and redrawn.  Replayed estimates are
  identical to cold-run estimates.

Version 4 adds the durability envelope: ``digest`` is the SHA-256 hex
digest of the entry's canonical serialization (sorted keys, compact
separators, the ``digest`` field itself excluded) — covering the packed
word rows, not just the key — and ``words`` records the packed row
width so :func:`fsck_store` can validate shapes without the database.
The digest is verified on every load, so a torn write, a truncation, or
a single flipped bit anywhere in the file is *detected* and the entry
degrades to recomputation instead of replaying damaged samples.

Entries written at any other version (v1–v3 included) load as a plain
miss and are recomputed; the next save rewrites them at v4.

Failure policy: the cache is an accelerator, never an authority.  Any
read problem — missing file, truncated/corrupt JSON, digest mismatch,
version mismatch, decoded facts that disagree with the live database —
silently degrades to recomputation (``tests/test_store.py`` exercises
each path), with the failure kind reported on
:attr:`CacheEntry.load_error` so callers can account it (the service
plane feeds these into ``repro_store_errors_total``).  Writes are
crash-consistent: the document is written to a temp file, fsynced,
renamed over the entry with ``os.replace``, and the directory is
fsynced — so after a crash at *any* point a reader sees exactly the old
entry or exactly the new one, never a mix (the crash-torture harness in
``tests/test_crash_torture.py`` SIGKILLs writers at every operation in
that sequence and asserts it).  All commit-path filesystem calls route
through :mod:`repro.engine.fsfault`, the injectable fault shim the
harness drives.  Failed writers may leave ``*.tmp`` files behind;
:class:`CacheStore` sweeps temp files older than a grace period when it
opens a directory.

Concurrent writers: two processes sharing a ``cache_dir`` for the same
key both load, compute, and save — a blind write would silently drop
whatever the other process appended in between (last writer wins).
:meth:`CacheEntry.save` therefore **reloads and merges** the on-disk
document before writing: structural fields union (both writers computed
them from the same instance, so values agree), and of two sample
prefixes on the same plane the *longer* wins — both are prefixes of the
same deterministic stream, so the longer one extends the shorter.  On
platforms with ``fcntl`` the reload-merge-write runs under an advisory
``flock`` on the store directory, making it atomic against other
writers; elsewhere it degrades to best-effort (the merge still closes
almost all of the window).
"""

from __future__ import annotations

import contextlib
import errno
import hashlib
import json
import os
import tempfile
import threading
import time
from typing import TYPE_CHECKING, Any

try:  # pragma: no cover - platform probe (Linux/macOS have it, Windows not)
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None

from ..core.blocks import Block, BlockDecomposition
from ..core.database import Database
from ..core.dependencies import FDSet
from ..core.facts import Fact
from ..core.queries import ConjunctiveQuery
from . import fsfault as _fsfault

# The packed-word geometry is owned by the vector plane: the format's
# core invariant is "the on-disk word row IS the plane's uint64 matrix
# row", so the store reads the constants from the one place that defines
# them.
from ..sampling.vectorized import WORD_BITS as _WORD_BITS
from ..sampling.vectorized import words_for as _words_for

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (session imports store)
    from .session import SamplePool

#: Bump when the on-disk schema changes; old entries are then recomputed.
#: v4: packed uint64 word rows (the vector plane's bitset-matrix rows)
#: with ``backend``/``batch`` metadata, inside the durability envelope —
#: ``digest`` (SHA-256 over the canonical serialization, verified on
#: every load) and ``words`` (packed row width, for database-free fsck).
STORE_VERSION = 4

#: Orphaned ``*.tmp`` files older than this are swept when a
#: :class:`CacheStore` opens a directory (long enough that a live
#: writer's temp file — written, fsynced and renamed within one save —
#: is never collected out from under it).
TMP_SWEEP_GRACE_SECONDS = 300.0


def _freeze(value: Any) -> Any:
    """JSON arrays decode to lists; fact/group values need tuples back."""
    if isinstance(value, list):
        return tuple(_freeze(v) for v in value)
    return value


def _encode_fact(fact: Fact) -> list:
    return [fact.relation, *fact.values]


def _decode_fact(row: Any) -> Fact:
    if not isinstance(row, list) or len(row) < 2:
        raise CacheFormatError(f"malformed fact row {row!r}")
    relation, *values = row
    return Fact(str(relation), tuple(_freeze(v) for v in values))


def _mask_to_words(mask: int, words: int) -> list[int]:
    """An id bitmask as its packed word row (little-endian word order)."""
    return [
        (mask >> (_WORD_BITS * position)) & ((1 << _WORD_BITS) - 1)
        for position in range(words)
    ]


class CacheFormatError(ValueError):
    """Raised internally for undecodable entry payloads (never escapes reads)."""


class CacheSerializationError(ValueError):
    """Raised by :meth:`CacheEntry.save` when the document cannot be
    serialized to JSON (e.g. an instance whose constants are not
    JSON-native).

    A distinct type so callers can treat "this instance is not
    cacheable" as the benign, accountable condition it is — catching
    ``(OSError, CacheSerializationError)`` — while genuine
    ``TypeError``/``ValueError`` bugs in the store keep propagating.
    """


def classify_store_error(error: BaseException) -> str:
    """A bounded-cardinality kind label for one store failure.

    The label set (``enospc`` / ``readonly`` / ``eio`` / ``os`` /
    ``serialize`` / ``unknown``, plus the read-side ``corrupt``) is what
    the service exports as the ``kind`` label of
    ``repro_store_errors_total`` — coarse on purpose, so callers cannot
    mint metric series.
    """
    if isinstance(error, CacheSerializationError):
        return "serialize"
    if isinstance(error, OSError):
        if error.errno == errno.ENOSPC:
            return "enospc"
        if error.errno in (errno.EROFS, errno.EACCES, errno.EPERM):
            return "readonly"
        if error.errno == errno.EIO:
            return "eio"
        return "os"
    return "unknown"


class StoreErrorLog:
    """Thread-safe ``(op, kind)`` store-failure counters + a degraded flag.

    The accounting spine of degraded mode: every absorbed store failure
    is recorded here instead of being silently squelched.  ``degraded``
    is level-triggered — set by :meth:`record`, cleared by
    :meth:`mark_ok` on the next successful store interaction — which is
    what the service's ``repro_degraded_mode`` gauge exports.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counts: dict[tuple[str, str], int] = {}
        self.last_error: str | None = None
        self.degraded = False

    def record(self, op: str, error: BaseException | str) -> str:
        """Count one failure of ``op`` and enter degraded mode.

        ``error`` is an exception (classified via
        :func:`classify_store_error`) or an already-classified kind
        string such as ``"corrupt"``.  Returns the kind.
        """
        kind = error if isinstance(error, str) else classify_store_error(error)
        with self._lock:
            self._counts[(op, kind)] = self._counts.get((op, kind), 0) + 1
            self.degraded = True
            self.last_error = f"{op}: {error}"
        return kind

    def mark_ok(self) -> None:
        """A store interaction succeeded: leave degraded mode."""
        with self._lock:
            self.degraded = False

    def total(self) -> int:
        """All failures recorded so far."""
        with self._lock:
            return sum(self._counts.values())

    def snapshot(self) -> dict:
        """JSON-native view: counts keyed ``"op:kind"``, flag, last error."""
        with self._lock:
            return {
                "degraded": self.degraded,
                "total": sum(self._counts.values()),
                "errors": {
                    f"{op}:{kind}": count
                    for (op, kind), count in sorted(self._counts.items())
                },
                "last_error": self.last_error,
            }


#: The process-wide log offline paths (``batch_estimate``) record into;
#: the service plane uses one :class:`StoreErrorLog` per registry instead.
STORE_ERRORS = StoreErrorLog()


def _document_digest(document: dict[str, Any]) -> str:
    """SHA-256 hex digest of a document's canonical serialization.

    Canonical = sorted keys, compact separators, the ``digest`` field
    itself excluded.  Computed over the parsed values (not the file
    bytes), so the verification is byte-layout independent — and because
    v4 files are *written* in this same compact form, every byte of the
    file is semantic: any single-bit flip either breaks the JSON parse
    or changes a value the digest covers.
    """
    body = {key: value for key, value in document.items() if key != "digest"}
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


@contextlib.contextmanager
def _directory_lock(directory: str):
    """Advisory exclusive lock on a store directory (no-op without fcntl).

    Locking the directory *fd* itself leaves no stray lock files in the
    store and survives the temp-file + ``os.replace`` dance (a lock on the
    entry file would be held on a dead inode after the first replace).
    Coarser than per-entry locking, but saves are rare and short.
    """
    if fcntl is None:
        yield
        return
    descriptor = os.open(directory, os.O_RDONLY)
    try:
        fcntl.flock(descriptor, fcntl.LOCK_EX)
        yield
    finally:
        os.close(descriptor)  # closing releases the flock


def _fsync_directory(directory: str, ops: "_fsfault.FsOps") -> None:
    """Make a completed rename durable (best-effort where unsupported).

    A failure here never loses data that was not already at risk: the
    replace has landed, so the new entry is visible; the directory fsync
    only narrows the power-loss window.  Platforms/filesystems that
    cannot open or fsync directories degrade silently — the rename is
    still atomic.  (A :class:`~repro.engine.fsfault.CrashPoint` is a
    ``BaseException`` and sails through, like the real crash it models.)
    """
    try:
        descriptor = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        ops.fsync_dir(descriptor)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(descriptor)


def instance_cache_key(
    database: Database,
    constraints: FDSet,
    generator_name: str,
    seed: int | None,
) -> str:
    """SHA-256 content hash of ``(database, Σ, generator, seed)``.

    The serialization is canonical (sorted facts, sorted FD attribute
    lists, sorted JSON keys), so equal instances hash equally regardless
    of construction order.  Non-JSON-native constants serialize via
    ``repr`` — which carries the type (``Decimal('1')`` vs ``'1'``) — so
    type-distinct values that merely *stringify* equally cannot collide
    onto one key.
    """
    schema = constraints.schema
    payload = {
        "schema": {rel.name: list(rel.attributes) for rel in schema},
        "facts": [_encode_fact(f) for f in database.sorted_facts()],
        "fds": [
            [d.relation, sorted(map(str, d.lhs)), sorted(map(str, d.rhs))]
            for d in sorted(constraints, key=str)
        ],
        "generator": generator_name,
        "seed": seed,
    }
    canonical = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class CacheEntry:
    """One persisted ``(database, Σ, generator, seed)`` bundle.

    Obtained from :meth:`CacheStore.entry`.  Getters return ``None`` on any
    miss *or* decode problem; setters mark the entry dirty; :meth:`save`
    writes atomically (and is a no-op when nothing changed).
    """

    def __init__(self, path: str, database: Database, constraints: FDSet):
        self.path = path
        self._database = database
        self._constraints = constraints
        self._dirty = False
        #: Why the on-disk entry was unusable, when it was: ``"corrupt"``
        #: (damage the digest/structure checks caught) or an OSError kind
        #: from :func:`classify_store_error`.  ``None`` for a clean load
        #: *and* for a plain miss — absence is not an error.
        self.load_error: str | None = None
        self._document = self._load()
        self._pool: "SamplePool | None" = None
        self._rng = None

    # -- load / save -----------------------------------------------------------------

    def _load(self) -> dict[str, Any]:
        empty = {
            "version": STORE_VERSION,
            "decomposition": None,
            "possibility": {},
            "bounds": {},
            "samples": [],
            "rng_state": None,
            "backend": None,
            "batch": None,
        }
        try:
            raw = _fsfault.active().read_bytes(self.path)
        except FileNotFoundError:
            return empty
        except OSError as error:
            self.load_error = classify_store_error(error)
            return empty
        try:
            document = json.loads(raw.decode("utf-8"))
        except (json.JSONDecodeError, UnicodeDecodeError, ValueError):
            self.load_error = "corrupt"
            return empty
        if not isinstance(document, dict):
            self.load_error = "corrupt"
            return empty
        if document.get("version") != STORE_VERSION:
            return empty  # a legitimately old/new format, not damage
        for field, kind in (("possibility", dict), ("bounds", dict), ("samples", list)):
            if not isinstance(document.get(field), kind):
                self.load_error = "corrupt"
                return empty
        if document.get("backend") not in (None, "scalar", "vector"):
            self.load_error = "corrupt"
            return empty
        batch = document.get("batch")
        if batch is not None and (
            isinstance(batch, bool) or not isinstance(batch, int) or batch < 1
        ):
            self.load_error = "corrupt"
            return empty
        if document.get("words") != self._sample_words():
            self.load_error = "corrupt"
            return empty
        digest = document.get("digest")
        if not isinstance(digest, str) or digest != _document_digest(document):
            self.load_error = "corrupt"
            return empty
        return document

    def save(self) -> bool:
        """Crash-consistently persist the entry if anything changed.

        Returns ``True`` when a commit actually reached the filesystem,
        ``False`` for the clean no-op (nothing dirty) — callers that
        account store health (degraded mode) must not treat a no-op as
        evidence the disk works.

        Never a blind write: under an advisory lock on the store
        directory (where the platform has one) the on-disk document is
        reloaded and merged first, so a concurrent run that appended its
        own sample batches or verdicts between our load and our save
        keeps them — see :meth:`_merge_from_disk`.

        The commit sequence is write → fsync(temp) → ``os.replace`` →
        fsync(directory): a crash before the replace leaves the old
        entry untouched, a crash after it leaves the new entry complete
        (the temp file's contents are durable *before* the rename makes
        them visible), and the directory fsync makes the rename itself
        durable.  The v4 envelope (``digest`` over the canonical
        serialization, ``words``) is stamped here.  Raises
        :class:`CacheSerializationError` when the document holds
        non-JSON-native values, ``OSError`` on filesystem failure.
        """
        if self._pool is not None:
            self._sync_pool()
        if not self._dirty:
            return False
        directory = os.path.dirname(self.path) or "."
        os.makedirs(directory, exist_ok=True)
        ops = _fsfault.active()
        with _directory_lock(directory):
            self._merge_from_disk()
            payload = dict(self._document)
            payload["version"] = STORE_VERSION
            payload["words"] = self._sample_words()
            payload.pop("digest", None)
            try:
                payload["digest"] = _document_digest(payload)
                # Written in the same canonical form the digest is
                # computed over: every byte of the file is semantic.
                encoded = json.dumps(
                    payload, sort_keys=True, separators=(",", ":")
                ).encode("utf-8")
            except (TypeError, ValueError) as error:
                raise CacheSerializationError(
                    f"cache entry is not JSON-serializable: {error}"
                ) from error
            descriptor, temp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
            try:
                try:
                    ops.write(descriptor, encoded)
                    ops.fsync(descriptor)
                finally:
                    os.close(descriptor)
                ops.replace(temp_path, self.path)
            except Exception:
                # Clean the temp file up on failure before re-raising.
                # (CrashPoint is a BaseException and deliberately skips
                # this — a simulated crash must leave its wreckage.)
                try:
                    ops.unlink(temp_path)
                except OSError:
                    pass
                raise
            _fsync_directory(directory, ops)
        self._document = payload
        self._dirty = False
        return True

    def _merge_from_disk(self) -> None:
        """Fold a concurrent writer's on-disk progress into this document.

        Both writers hold the same ``(database, Σ, generator, seed)`` key,
        so their computed values agree wherever they overlap; merging is
        about *union*, not reconciliation:

        * possibility verdicts and bounds: union, ours on (equal-valued)
          overlap;
        * decomposition: ours, theirs only when we never computed one;
        * samples: prefixes of the same seeded stream extend each other,
          so of two same-plane prefixes the longer survives together with
          its resume state (RNG state / batch size).  A prefix from the
          *other* plane is a different stream — ours wins outright.

        A missing, corrupt, or stale-version file contributes nothing
        (the load path already validates and degrades to empty).
        """
        disk = CacheEntry(self.path, self._database, self._constraints)
        theirs = disk._document
        document = self._document
        for field in ("possibility", "bounds"):
            merged = dict(theirs[field])
            merged.update(document[field])
            document[field] = merged
        if document.get("decomposition") is None:
            document["decomposition"] = theirs.get("decomposition")
        ours_backend = document.get("backend")
        theirs_backend = disk.sample_backend()
        if theirs_backend is not None and disk.sample_word_rows():
            same_plane = ours_backend == theirs_backend and (
                theirs_backend != "vector"
                or document.get("batch") == theirs.get("batch")
            )
            adopt = ours_backend is None or (
                same_plane and len(theirs["samples"]) > len(document["samples"])
            )
            if adopt:
                # .get(): a minimally valid file may omit the resume
                # fields entirely — absent must merge like null, never
                # crash the save (the accelerator-not-authority policy).
                for field in ("samples", "rng_state", "backend", "batch"):
                    document[field] = theirs.get(field)

    # -- decomposition ---------------------------------------------------------------

    def get_decomposition(self) -> BlockDecomposition | None:
        """The persisted block decomposition, validated against ``(D, Σ)``.

        Validation is structural, not just set-level: the fact union must
        equal the database, every block must be a genuine key-group of its
        relation (per Σ), groups must be unique, and blocks are re-sorted
        into the canonical order :func:`block_decomposition` produces — so
        a tampered regrouping or reordering is rejected/neutralized rather
        than silently changing sampler behaviour.
        """
        rows = self._document.get("decomposition")
        if not isinstance(rows, list):
            return None
        try:
            blocks = []
            for row in rows:
                facts = frozenset(_decode_fact(r) for r in row["facts"])
                blocks.append(Block(str(row["relation"]), _freeze(row["group"]), facts))
        except (CacheFormatError, KeyError, TypeError, ValueError):
            return None
        decoded = frozenset(f for block in blocks for f in block.facts)
        if decoded != self._database.facts:
            return None  # key collision or corruption: recompute, never trust
        if not self._blocks_match_constraints(blocks):
            return None
        blocks.sort(key=lambda block: (block.relation, repr(block.group)))
        return BlockDecomposition(tuple(blocks))

    def _blocks_match_constraints(self, blocks: list[Block]) -> bool:
        """Whether every decoded block is a real key-group under ``Σ``."""
        key_by_relation = {d.relation: d for d in self._constraints}
        schema = self._constraints.schema
        seen: set[tuple] = set()
        try:
            for block in blocks:
                if any(f.relation != block.relation for f in block.facts):
                    return False
                dependency = key_by_relation.get(block.relation)
                if dependency is None:
                    # Relations without a key contribute singleton blocks.
                    (only,) = block.facts
                    if block.group != (str(only),):
                        return False
                else:
                    positions = schema.relation(block.relation).positions_of(
                        sorted(dependency.lhs)
                    )
                    groups = {
                        tuple(f.values[i] for i in positions) for f in block.facts
                    }
                    if groups != {block.group}:
                        return False
                identity = (block.relation, block.group)
                if identity in seen:
                    return False  # a split block: groups must be maximal
                seen.add(identity)
        except (KeyError, TypeError, ValueError):
            return False
        return True

    def set_decomposition(self, decomposition: BlockDecomposition) -> None:
        """Persist a freshly computed decomposition."""
        self._document["decomposition"] = [
            {
                "relation": block.relation,
                "group": list(block.group),
                "facts": [_encode_fact(f) for f in block.sorted_facts()],
            }
            for block in decomposition
        ]
        self._dirty = True

    # -- possibility verdicts and positivity bounds ------------------------------------

    @staticmethod
    def _request_key(query: ConjunctiveQuery, answer: tuple) -> str:
        # default=repr, not str: repr carries the type, so type-distinct
        # constants that stringify equally (Decimal('1') vs '1') cannot
        # collide onto one verdict key.
        return f"{query}|{json.dumps(list(answer), default=repr)}"

    def get_possible(self, query: ConjunctiveQuery, answer: tuple) -> bool | None:
        """The cached zero-test verdict for ``(query, answer)``, if any."""
        value = self._document["possibility"].get(self._request_key(query, answer))
        return value if isinstance(value, bool) else None

    def set_possible(self, query: ConjunctiveQuery, answer: tuple, value: bool) -> None:
        """Persist one zero-test verdict."""
        self._document["possibility"][self._request_key(query, answer)] = bool(value)
        self._dirty = True

    def get_bound(self, query: ConjunctiveQuery) -> float | None:
        """The cached positivity lower bound for ``query``, if any.

        A bound outside ``(0, 1]`` (tampering, or a serialization accident)
        is treated as a miss — estimators reject such values, and the cache
        must degrade to recomputation rather than propagate the error.
        """
        value = self._document["bounds"].get(str(query))
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return None
        return float(value) if 0 < value <= 1 else None

    def set_bound(self, query: ConjunctiveQuery, value: float) -> None:
        """Persist one positivity bound."""
        self._document["bounds"][str(query)] = float(value)
        self._dirty = True

    # -- sample batches ---------------------------------------------------------------

    def _fact_order(self) -> list[Fact]:
        if not hasattr(self, "_sorted_facts"):
            self._sorted_facts = self._database.sorted_facts()
        return self._sorted_facts

    def _sample_words(self) -> int:
        """Packed words per sample row for this entry's database."""
        return _words_for(len(self._fact_order()))

    def sample_backend(self) -> str | None:
        """Which plane drew the persisted prefix (``None`` when unknown/empty)."""
        value = self._document.get("backend")
        return value if value in ("scalar", "vector") else None

    def sample_batch(self) -> int | None:
        """The vector plane's batch size the prefix was drawn with, if any."""
        value = self._document.get("batch")
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            return None
        return value

    def sample_word_rows(self) -> list[list[int]]:
        """The persisted sample prefix as validated packed word rows.

        The zero-conversion view for vector pools (their in-memory matrix
        row is the on-disk row).  A row of the wrong width, a non-integer
        or out-of-range word, or set bits beyond the instance's fact
        count marks the entry corrupt and the whole batch is
        **discarded** (resume state would be meaningless for a different
        stream), so the next :meth:`save` rewrites a clean entry instead
        of preserving the damage.
        """
        size = len(self._fact_order())
        words = self._sample_words()
        rows: list[list[int]] = []
        try:
            for row in self._document["samples"]:
                if not isinstance(row, list) or len(row) != words:
                    raise CacheFormatError("malformed sample word row")
                for word in row:
                    if (
                        # bool is an int subclass: true/false would
                        # silently decode as words 1/0.
                        isinstance(word, bool)
                        or not isinstance(word, int)
                        or not 0 <= word < (1 << _WORD_BITS)
                    ):
                        raise CacheFormatError("malformed sample word")
                if words and row[-1] >> (size - _WORD_BITS * (words - 1)):
                    raise CacheFormatError("sample bits beyond the instance")
                rows.append(row)
        except (CacheFormatError, TypeError):
            self.discard_samples()
            return []
        return rows

    def preload_sample_masks(self) -> list[int]:
        """The persisted sample prefix as id bitmasks (empty on any decode
        problem) — :meth:`sample_word_rows` shift-OR'ed together, pure
        integer work with no fact reconstruction."""
        return [
            sum(word << (_WORD_BITS * position) for position, word in enumerate(row))
            for row in self.sample_word_rows()
        ]

    def discard_samples(self) -> None:
        """Drop the persisted sample prefix (and its resume metadata)."""
        if (
            self._document["samples"]
            or self._document.get("rng_state") is not None
            or self._document.get("backend") is not None
            or self._document.get("batch") is not None
        ):
            self._document["samples"] = []
            self._document["rng_state"] = None
            self._document["backend"] = None
            self._document["batch"] = None
            self._dirty = True

    def rng_state(self) -> tuple | None:
        """The persisted ``random.Random`` state, decoded for ``setstate``."""
        raw = self._document.get("rng_state")
        if not isinstance(raw, list) or len(raw) != 3 or not isinstance(raw[1], list):
            return None
        try:
            return (raw[0], tuple(raw[1]), raw[2])
        except TypeError:
            return None

    def attach_pool(self, pool: "SamplePool", rng=None) -> None:
        """Track a live pool (+ RNG for scalar pools) so :meth:`save`
        persists newly drawn samples.

        Scalar pools must come with the RNG that draws them — persisting
        their prefix without its post-draw state would be unreplayable —
        so the omission fails here, not deep inside :meth:`save`.
        """
        if rng is None and pool.backend != "vector":
            raise ValueError("attach_pool() needs the drawing RNG for scalar pools")
        self._pool = pool
        self._rng = rng

    def _sync_pool(self) -> None:
        drawn = len(self._pool)
        if drawn <= len(self._document["samples"]):
            return
        backend = self._pool.backend
        if backend == "vector":
            # The on-disk row IS the pool's packed uint64 matrix row:
            # serialize it directly, never round-tripping through the
            # pool's (lazily decoded) arbitrary-precision masks.  Vector
            # prefixes resume by batch index — the substream contract
            # replaces the RNG state (the batch size is part of it).
            self._document["samples"] = self._pool.packed_prefix(drawn).tolist()
            self._document["batch"] = self._pool.batch_size
            self._document["rng_state"] = None
        else:
            # Scalar pools hold id bitmasks (the index order equals the
            # canonical fact order): encoding never touches a Fact.
            words = self._sample_words()
            self._document["samples"] = [
                _mask_to_words(mask, words)
                for mask in self._pool.materialized_samples()
            ]
            self._document["batch"] = None
            state = self._rng.getstate()
            self._document["rng_state"] = [state[0], list(state[1]), state[2]]
        self._document["backend"] = backend
        self._dirty = True


class CacheStore:
    """A directory of :class:`CacheEntry` files, one per instance key.

    Opening a store sweeps orphaned ``*.tmp`` files — the wreckage of
    crashed or failed writers — that are older than
    ``tmp_grace_seconds`` (default :data:`TMP_SWEEP_GRACE_SECONDS`),
    under the same advisory directory lock saves take, so a live
    writer's in-flight temp file is never collected.
    """

    def __init__(
        self,
        directory: str,
        *,
        tmp_grace_seconds: float = TMP_SWEEP_GRACE_SECONDS,
    ):
        self.directory = str(directory)
        self.tmp_grace_seconds = tmp_grace_seconds
        self.swept_temps = self.sweep_temps()

    def sweep_temps(self) -> int:
        """Unlink stale orphaned temp files; returns how many went.

        Best-effort on every path: a missing directory, an unlistable
        directory, or a temp file that vanishes mid-sweep (a concurrent
        sweeper, or the writer completing) is simply skipped.
        """
        try:
            names = [n for n in os.listdir(self.directory) if n.endswith(".tmp")]
        except OSError:
            return 0
        if not names:
            return 0
        removed = 0
        # The grace cutoff compares against on-disk mtimes, which are
        # wall-clock by nature; monotonic time has no relation to them.
        cutoff = time.time() - self.tmp_grace_seconds  # repro-lint: disable=RL002
        with _directory_lock(self.directory):
            for name in names:
                path = os.path.join(self.directory, name)
                try:
                    if os.stat(path).st_mtime <= cutoff:
                        _fsfault.active().unlink(path)
                        removed += 1
                except OSError:
                    continue
        return removed

    def entry(
        self,
        database: Database,
        constraints: FDSet,
        generator_name: str,
        seed: int | None,
    ) -> CacheEntry:
        """Load (or initialize empty) the entry for this instance key."""
        key = instance_cache_key(database, constraints, generator_name, seed)
        path = os.path.join(self.directory, f"{key}.json")
        return CacheEntry(path, database, constraints)


# -- fsck ------------------------------------------------------------------------------


class FsckReport:
    """What :func:`fsck_store` found in one cache directory.

    ``entries`` rows are ``{"file", "status", "detail"}`` with status
    ``"ok"`` / ``"damaged"`` / ``"quarantined"`` (damaged + repaired) /
    ``"orphan-tmp"`` / ``"removed-tmp"``.  ``ok`` is ``False`` exactly
    when damage was found — repaired or not — so a CI leg can assert
    "fsck fails, repair, fsck passes".  Orphan temp files are reported
    but are *not* damage (every crashed writer leaves one).
    """

    def __init__(self, directory: str):
        self.directory = directory
        self.entries: list[dict] = []
        self.scanned = 0
        self.damaged = 0
        self.quarantined = 0
        self.orphan_temps = 0

    @property
    def ok(self) -> bool:
        return self.damaged == 0

    def to_dict(self) -> dict:
        """The report as one JSON-native document."""
        return {
            "directory": self.directory,
            "ok": self.ok,
            "scanned": self.scanned,
            "damaged": self.damaged,
            "quarantined": self.quarantined,
            "orphan_temps": self.orphan_temps,
            "entries": list(self.entries),
        }

    def render(self) -> str:
        """The human-readable summary the ``fsck`` CLI prints."""
        lines = [
            f"fsck {self.directory}: {self.scanned} entries scanned, "
            f"{self.damaged} damaged"
            + (f" ({self.quarantined} quarantined)" if self.quarantined else "")
            + (
                f", {self.orphan_temps} orphan temp files"
                if self.orphan_temps
                else ""
            )
        ]
        for row in self.entries:
            if row["status"] != "ok":
                lines.append(f"  {row['file']}: {row['status']} — {row['detail']}")
        lines.append("fsck " + ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines)


def _fsck_document(document: Any) -> str | None:
    """Damage detail for one parsed entry document (``None`` = clean)."""
    if not isinstance(document, dict):
        return "not a JSON object"
    version = document.get("version")
    if version != STORE_VERSION:
        return f"unknown store version {version!r}"
    for field, kind in (("possibility", dict), ("bounds", dict), ("samples", list)):
        if not isinstance(document.get(field), kind):
            return f"malformed {field!r} field"
    if document.get("backend") not in (None, "scalar", "vector"):
        return f"unknown sample backend {document.get('backend')!r}"
    widths = set()
    for row in document["samples"]:
        if not isinstance(row, list):
            return "non-list sample row"
        widths.add(len(row))
        for word in row:
            if (
                isinstance(word, bool)
                or not isinstance(word, int)
                or not 0 <= word < (1 << _WORD_BITS)
            ):
                return f"sample word {word!r} outside uint64"
    if len(widths) > 1:
        return f"inconsistent sample row widths {sorted(widths)}"
    words = document.get("words")
    if isinstance(words, bool) or not isinstance(words, int) or words < 0:
        return f"malformed 'words' field {words!r}"
    if widths and widths != {words}:
        return f"sample rows are {sorted(widths)} words wide, header says {words}"
    digest = document.get("digest")
    if not isinstance(digest, str):
        return "missing content digest"
    expected = _document_digest(document)
    if digest != expected:
        return f"content digest mismatch (stored {digest[:12]}…, computed {expected[:12]}…)"
    return None


def fsck_store(directory: str, *, repair: bool = False) -> FsckReport:
    """Scan a cache directory; verify every entry's digest and structure.

    Checks each ``*.json`` entry for valid JSON, the current store
    version, field structure, packed-row shape, and the SHA-256 content
    digest (which catches any torn write, truncation or
    bit flip).  Orphaned ``*.tmp`` files are reported informationally.
    With ``repair=True``, damaged entries are **quarantined** (renamed
    to ``<name>.quarantined``, preserving the bytes for forensics) so
    the next warm run recomputes cleanly, and orphan temp files are
    removed regardless of age.  The scan needs no database: entries carry
    their row width in ``words``.
    """
    report = FsckReport(str(directory))
    try:
        names = sorted(os.listdir(directory))
    except OSError as error:
        report.entries.append(
            {"file": "", "status": "damaged", "detail": f"unlistable: {error}"}
        )
        report.damaged += 1
        return report
    for name in names:
        path = os.path.join(directory, name)
        if name.endswith(".tmp"):
            status = "orphan-tmp"
            detail = "leftover writer temp file"
            report.orphan_temps += 1
            if repair:
                try:
                    # fsck repair stays off the shim on purpose: the
                    # offline doctor must keep working under an armed
                    # fault plan (reads go through it to *see* injected
                    # damage; repairs must land regardless).
                    os.unlink(path)  # repro-lint: disable=RL004
                    status = "removed-tmp"
                except OSError as error:
                    detail = f"could not remove: {error}"
            report.entries.append({"file": name, "status": status, "detail": detail})
            continue
        if not name.endswith(".json"):
            continue
        report.scanned += 1
        detail = None
        try:
            raw = _fsfault.active().read_bytes(path)
        except OSError as error:
            detail = f"unreadable: {error}"
        if detail is None:
            try:
                detail = _fsck_document(json.loads(raw.decode("utf-8")))
            except (json.JSONDecodeError, UnicodeDecodeError, ValueError) as error:
                detail = f"invalid JSON: {error}"
        if detail is None:
            report.entries.append({"file": name, "status": "ok", "detail": ""})
            continue
        report.damaged += 1
        status = "damaged"
        if repair:
            try:
                # Off the shim for the same reason as the tmp removal
                # above: quarantine must succeed under an armed plan.
                os.replace(path, path + ".quarantined")  # repro-lint: disable=RL004
                status = "quarantined"
                report.quarantined += 1
            except OSError as error:
                detail = f"{detail}; quarantine failed: {error}"
        report.entries.append({"file": name, "status": status, "detail": detail})
    return report
