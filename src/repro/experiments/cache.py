"""Content-addressed on-disk store for evaluated experiment cells.

A table cell's value is a pure function of its :class:`~repro.
experiments.common.CellSpec` (see docs/performance.md), so a completed
:class:`~repro.experiments.common.CellResult` can be persisted and
replayed verbatim: a re-run after a crash, a Ctrl-C or a kill
recomputes only the cells that never finished.  The store is what
backs ``balanced-sched run --resume`` (the default; ``--fresh``
recomputes everything).

Keys are SHA-256 digests of a *canonical token* built from every field
that influences the result -- program name, memory-system family and
parameters, optimistic latency, processor attributes, seed, runs,
bootstrap resamples, register file, alias model -- plus
:func:`code_version`, a SHA-256 of the ``repro`` package's own ``.py``
sources, so any change to compilation, scheduling, simulation or
statistics code orphans every older entry and stale results can never
masquerade as current ones.  Tokens use only primitive values (never
``hash()``, which is randomised per process), so a key is stable
across processes, machines and Python versions.

Values are pickled exactly as computed; pickling preserves float bits,
so a cached, a resumed and a fresh run print byte-identical tables.
Layout: ``<root>/<first two hex chars>/<digest>.pkl``, with writes
staged through a same-directory temp file and ``os.replace`` so a
crash mid-write can only ever leave a temp file behind, never a
truncated entry.  Unreadable or corrupt entries are treated as misses
and overwritten.
"""

from __future__ import annotations

import functools
import json
import logging
import os
import pickle
import tempfile
from hashlib import sha256
from pathlib import Path
from typing import Any, Optional

logger = logging.getLogger("repro.experiments.cache")

#: The ``repro`` package directory whose sources salt every key.
PACKAGE_ROOT = Path(__file__).resolve().parent.parent

#: Environment override for the cache root used by the CLI.
CACHE_DIR_ENV = "BALANCED_SCHED_CACHE_DIR"

#: The CLI's default cache root (relative to the working directory).
DEFAULT_CACHE_DIR = os.path.join("results", "cache")


def default_cache_dir() -> str:
    """The CLI cache root: ``$BALANCED_SCHED_CACHE_DIR`` or results/cache."""
    return os.environ.get(CACHE_DIR_ENV, DEFAULT_CACHE_DIR)


# ----------------------------------------------------------------------
# Canonical tokens and keys
# ----------------------------------------------------------------------
def spec_token(spec: Any) -> list:
    """The canonical, JSON-serialisable identity of a ``CellSpec``.

    Duck-typed (reads attributes) so this module never imports
    ``common`` -- ``common`` imports us.  Every field that can change a
    cell's value appears here; ``SystemRow.group`` is presentation
    only and deliberately excluded.
    """
    memory = spec.system.memory
    register_file = spec.register_file
    return [
        "cell",
        spec.program,
        type(memory).__name__,
        memory.name,
        repr(float(spec.system.optimistic_latency)),
        [
            spec.processor.name,
            spec.processor.max_outstanding_loads,
            spec.processor.max_load_cycles,
            spec.processor.issue_width,
            spec.processor.blocking_loads,
        ],
        int(spec.seed),
        int(spec.runs),
        int(spec.n_boot),
        None
        if register_file is None
        else [
            register_file.n_int,
            register_file.n_fp,
            register_file.base_pool,
            register_file.enlarged_pool,
            register_file.fifo_pool,
        ],
        spec.alias_model.value,
    ]


def source_digest(root: Path) -> str:
    """SHA-256 over every ``.py`` file under ``root``: each file's path
    relative to ``root`` and its bytes, in sorted path order."""
    digest = sha256()
    files = sorted(
        (path.relative_to(root).as_posix(), path) for path in root.rglob("*.py")
    )
    for relpath, path in files:
        data = path.read_bytes()
        digest.update(f"{relpath}\0{len(data)}\0".encode("utf-8"))
        digest.update(data)
    return digest.hexdigest()


@functools.cache
def code_version() -> str:
    """The source digest of the running ``repro`` package.

    Computed on the first key of the process (a few milliseconds) and
    reused after that, so commands that never touch the cache, such as
    ``--help``, do not pay for it.
    """
    return source_digest(PACKAGE_ROOT)


def object_key(*parts: Any) -> str:
    """A stable SHA-256 key for arbitrary JSON-serialisable parts.

    :func:`code_version` is always folded in, so editing any source
    file of the package orphans every existing entry at once.
    """
    token = json.dumps([code_version(), list(parts)], sort_keys=True)
    return sha256(token.encode("utf-8")).hexdigest()


def cell_key(spec: Any) -> str:
    """The store key of one experiment cell."""
    return object_key(spec_token(spec))


# ----------------------------------------------------------------------
# The store
# ----------------------------------------------------------------------
class ResultCache:
    """A directory of pickled results, addressed by stable keys.

    Keys come from :func:`cell_key` for table cells and from
    :func:`object_key` for coarser-grained results -- Table 4 rows,
    whole ablation tables -- so everything checkpoints through the
    same store.
    """

    def __init__(self, root) -> None:
        self.root = Path(root)

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    # ------------------------------------------------------------------
    def get_object(self, key: str) -> Optional[Any]:
        """The stored value, or ``None`` on a miss or a corrupt entry."""
        path = self.path_for(key)
        try:
            with open(path, "rb") as handle:
                return pickle.load(handle)
        except FileNotFoundError:
            return None
        except Exception as exc:
            # A torn or stale entry (truncated pickle after a SIGKILL,
            # a bad disk, a foreign file dropped into the tree) is a
            # miss; the next put overwrites.  Warn so silent corruption
            # never masquerades as a plain cold cache.
            logger.warning(
                "corrupt result-cache entry %s (%s: %s); treating as a "
                "miss", path, type(exc).__name__, exc,
            )
            return None

    def put_object(self, key: str, value: Any) -> None:
        """Atomically persist ``value`` (crash mid-write leaves no
        partial entry: the temp file lives in the target directory and
        lands via ``os.replace``)."""
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=str(path.parent), prefix=path.name, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                pickle.dump(value, handle, protocol=pickle.HIGHEST_PROTOCOL)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*/*.pkl"))

    def clear(self) -> None:
        """Delete every entry (keeps the directory tree)."""
        if not self.root.is_dir():
            return
        for path in self.root.glob("*/*.pkl"):
            try:
                path.unlink()
            except OSError:
                pass
