"""Memory-mapped array store: a directory of ``.npy`` files + JSON meta.

The scale layer's storage primitive.  A :class:`MemStore` is a directory
holding one plain ``.npy`` file per named array and a ``store.json``
recording, for every entry, its shape, dtype, byte size and the sha256
of the *intended* file bytes.  Arrays come back as read-only
``np.memmap`` views (``np.load(..., mmap_mode="r")``), so

* every process mapping the same store shares one set of OS page-cache
  pages — pool workers, sharded evaluation and the serving daemon
  read the same physical memory instead of holding pickled private
  copies, and
* resident cost is pay-per-touch: an array the workload never reads
  costs address space, not RAM, and cold pages are evictable under
  pressure (file-backed, clean).

Stores are artifacts like any other: writes go through
:func:`~repro.reliability.atomic.atomic_write_bytes` (crash-safe, and
the ``io.write`` fault-injection site applies, so torn/byte-flipped
``.npy`` chaos is testable), and every open verifies the recorded
sha256 before handing out a mapping — damage surfaces as a typed
:class:`~repro.errors.CorruptArtifactError` naming the file, never a
raw numpy/OS traceback.
"""

from __future__ import annotations

import io
import json
import re
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from repro.errors import CorruptArtifactError, MissingArtifactError, ServingError
from repro.reliability.atomic import atomic_write_bytes, atomic_write_json
from repro.reliability.manifest import sha256_bytes, sha256_file

#: Meta filename inside a store directory.
STORE_META_FILE = "store.json"

_FORMAT_VERSION = 1

#: Array names must be filesystem-safe (they become ``<name>.npy``).
_NAME_PATTERN = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]*$")


def npy_bytes(array: np.ndarray) -> bytes:
    """The exact bytes ``np.save`` would write for *array*.

    Serialized in-memory so callers can hash the payload for the store
    meta and hand the same bytes to the atomic writer — one
    serialization, both uses (hashing the *intended* bytes, so injected
    write corruption cannot self-certify).
    """
    buffer = io.BytesIO()
    np.lib.format.write_array(buffer, np.ascontiguousarray(array), allow_pickle=False)
    return buffer.getvalue()


def is_mapped(array) -> bool:
    """True when *array* is a file-backed ``np.memmap`` with a known path."""
    return isinstance(array, np.memmap) and bool(getattr(array, "filename", None))


def array_memory(arrays: Iterable[np.ndarray]) -> tuple[int, int]:
    """``(in_process_bytes, mapped_bytes)`` split of an array collection.

    Memory accounting for the scale benchmarks: mapped arrays are
    file-backed (shared, evictable) and counted separately from private
    in-process copies.
    """
    in_process = 0
    mapped = 0
    for array in arrays:
        if array is None:
            continue
        if is_mapped(array):
            mapped += int(array.nbytes)
        else:
            in_process += int(array.nbytes)
    return in_process, mapped


def _check_name(name: str) -> str:
    if not isinstance(name, str) or not _NAME_PATTERN.match(name):
        raise ServingError(
            f"store array names must be filesystem-safe identifiers, got {name!r}"
        )
    return name


class MemStore:
    """A directory of memory-mappable ``.npy`` arrays with integrity meta.

    Use :meth:`create` for a new (or re-written) store and :meth:`open`
    for an existing one; :meth:`put` writes an array crash-safely,
    :meth:`get` maps one read-only after checking its recorded sha256.
    ``extra`` is a free-form JSON dict callers stamp provenance into
    when they create the store (e.g. the index kind it holds).
    """

    def __init__(
        self,
        directory: str | Path,
        *,
        _entries: dict | None = None,
        _extra: dict | None = None,
    ) -> None:
        self.directory = Path(directory)
        self._entries: dict[str, dict] = _entries if _entries is not None else {}
        self.extra: dict = _extra if _extra is not None else {}
        self._verified: set[str] = set()

    # ------------------------------------------------------------ lifecycle
    @classmethod
    def create(cls, directory: str | Path, extra: dict | None = None) -> "MemStore":
        """Start an empty store at *directory* (created if needed)."""
        store = cls(directory, _extra=dict(extra or {}))
        store.directory.mkdir(parents=True, exist_ok=True)
        store._write_meta()
        return store

    @classmethod
    def begin(cls, directory: str | Path, extra: dict | None = None) -> "MemStore":
        """Open a store for (re)writing without committing its meta yet.

        Payload files land as entries are :meth:`put` (with
        ``flush=False``); nothing becomes visible to fresh readers until
        :meth:`flush` atomically replaces ``store.json`` — the single
        commit point.  Rewriting an existing store this way keeps the
        previous version loadable if the write is torn before the flush,
        instead of destroying its meta up front the way :meth:`create`
        (which persists an empty index immediately) would.
        """
        store = cls(directory, _extra=dict(extra or {}))
        store.directory.mkdir(parents=True, exist_ok=True)
        return store

    @classmethod
    def open(cls, directory: str | Path) -> "MemStore":
        """Open an existing store; typed errors for missing/damaged meta."""
        directory = Path(directory)
        meta_path = directory / STORE_META_FILE
        if not meta_path.exists():
            raise MissingArtifactError(
                f"not an array store (no {STORE_META_FILE}): {directory}",
                path=meta_path,
            )
        try:
            meta = json.loads(meta_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError, UnicodeDecodeError) as error:
            raise CorruptArtifactError(
                f"array store meta is torn or corrupt ({error}): {meta_path}",
                path=meta_path,
            ) from None
        if meta.get("format_version") != _FORMAT_VERSION:
            raise ServingError(
                f"unsupported array store version: {meta.get('format_version')}"
            )
        entries = meta.get("arrays")
        if not isinstance(entries, dict):
            raise CorruptArtifactError(
                f"array store meta has no 'arrays' mapping: {meta_path}",
                path=meta_path,
            )
        return cls(directory, _entries=dict(entries), _extra=dict(meta.get("extra", {})))

    def _write_meta(self) -> None:
        atomic_write_json(
            self.directory / STORE_META_FILE,
            {
                "format_version": _FORMAT_VERSION,
                "arrays": dict(sorted(self._entries.items())),
                "extra": self.extra,
            },
            sort_keys=True,
        )

    # ------------------------------------------------------------- contents
    def __contains__(self, name: str) -> bool:
        return name in self._entries

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._entries))

    def names(self) -> tuple[str, ...]:
        return tuple(sorted(self._entries))

    def entry(self, name: str) -> dict:
        """The recorded ``{file, shape, dtype, nbytes, sha256}`` of *name*."""
        try:
            return dict(self._entries[name])
        except KeyError:
            raise MissingArtifactError(
                f"array {name!r} is not in this store: {self.directory}",
                path=self.directory / f"{name}.npy",
            ) from None

    def nbytes(self) -> int:
        """Total logical bytes of every stored array."""
        return int(sum(entry["nbytes"] for entry in self._entries.values()))

    def flush(self) -> None:
        """Atomically persist the meta — the commit point for :meth:`begin`."""
        self._write_meta()

    def hashes(self, prefix: str = "") -> dict[str, str]:
        """``{relative path: sha256}`` of every file, for run manifests.

        Includes ``store.json`` itself (hashed from disk — it is small),
        so a manifest covering the store covers the index of the store
        too, not just the payload files.
        """
        out = {
            f"{prefix}{entry['file']}": entry["sha256"]
            for entry in self._entries.values()
        }
        meta_path = self.directory / STORE_META_FILE
        out[f"{prefix}{STORE_META_FILE}"] = sha256_file(meta_path)
        return out

    # --------------------------------------------------------------- access
    def put(self, name: str, array: np.ndarray, flush: bool = True) -> np.ndarray:
        """Write *array* crash-safely and return its read-only mapping.

        An existing entry of the same name is atomically replaced.  The
        recorded sha256 is computed from the bytes we *meant* to write,
        so a fault injected at the ``io.write`` site (or real bit rot)
        is caught by the next :meth:`get`.  ``flush=False`` defers the
        ``store.json`` update to an explicit :meth:`flush` — bulk
        writers started with :meth:`begin` use it so the whole batch
        commits at one atomic point.
        """
        _check_name(name)
        array = np.asarray(array)
        payload = npy_bytes(array)
        filename = f"{name}.npy"
        path = self.directory / filename
        atomic_write_bytes(path, payload)
        self._entries[name] = {
            "file": filename,
            "shape": [int(s) for s in array.shape],
            "dtype": str(array.dtype),
            "nbytes": int(array.nbytes),
            "sha256": sha256_bytes(payload),
        }
        self._verified.discard(name)
        if flush:
            self._write_meta()
        return self.get(name)

    def get(self, name: str, verify: bool = True) -> np.ndarray:
        """Map array *name* read-only; integrity-checked on first access.

        ``verify=True`` (default) compares the file's sha256 against the
        store meta once per store instance — truncation *and* in-page
        byte flips are both caught up front, because a flipped byte deep
        in the data region would otherwise surface as silently wrong
        scores rather than any exception.
        """
        entry = self._entries.get(name)
        if entry is None:
            raise MissingArtifactError(
                f"array {name!r} is not in this store: {self.directory}",
                path=self.directory / f"{name}.npy",
            )
        path = self.directory / entry["file"]
        if not path.exists():
            raise MissingArtifactError(
                f"store array file recorded in {STORE_META_FILE} is missing: {path}",
                path=path,
            )
        if verify and name not in self._verified:
            if sha256_file(path) != entry["sha256"]:
                raise CorruptArtifactError(
                    "store array failed its integrity check (sha256 mismatch "
                    f"against {STORE_META_FILE}): {path}",
                    path=path,
                )
            self._verified.add(name)
        try:
            array = np.load(path, mmap_mode="r", allow_pickle=False)
        except Exception as error:  # ValueError (bad header/size), OSError
            raise CorruptArtifactError(
                f"store array is unreadable ({error}): {path}", path=path
            ) from None
        if list(array.shape) != list(entry["shape"]) or str(array.dtype) != entry["dtype"]:
            raise CorruptArtifactError(
                f"store array does not match its recorded layout (got "
                f"{array.dtype}{array.shape}, recorded "
                f"{entry['dtype']}{tuple(entry['shape'])}): {path}",
                path=path,
            )
        return array

    def get_all(self, verify: bool = True) -> dict[str, np.ndarray]:
        """Map every stored array (insertion-order independent: sorted)."""
        return {name: self.get(name, verify=verify) for name in self.names()}

    def verify_all(self) -> None:
        """Re-check every file's sha256 from disk (ignores the cache)."""
        self._verified.clear()
        for name in self.names():
            self.get(name)

    def __repr__(self) -> str:
        return (
            f"MemStore({str(self.directory)!r}, arrays={len(self._entries)}, "
            f"nbytes={self.nbytes()})"
        )


def open_mapped(path: str | Path, *, dtype=None, shape=None) -> np.ndarray:
    """Map a standalone ``.npy`` file read-only, with optional layout check.

    The payload-shipping path (:mod:`repro.parallel.payload`) records
    bare file paths; workers reopen them here.  Layout mismatches and
    unreadable files raise typed artifact errors like store access does.
    """
    path = Path(path)
    if not path.exists():
        raise MissingArtifactError(f"mapped array file is missing: {path}", path=path)
    try:
        array = np.load(path, mmap_mode="r", allow_pickle=False)
    except Exception as error:
        raise CorruptArtifactError(
            f"mapped array is unreadable ({error}): {path}", path=path
        ) from None
    if shape is not None and tuple(array.shape) != tuple(shape):
        raise CorruptArtifactError(
            f"mapped array shape {array.shape} != recorded {tuple(shape)}: {path}",
            path=path,
        )
    if dtype is not None and str(array.dtype) != str(dtype):
        raise CorruptArtifactError(
            f"mapped array dtype {array.dtype} != recorded {dtype}: {path}",
            path=path,
        )
    return array


def mappable_source(array) -> tuple[str, str, tuple[int, ...]] | None:
    """``(path, dtype, shape)`` when *array* is a whole-file ``.npy`` map.

    Returns ``None`` for anything else — in-memory arrays, views/slices
    of a mapping, or files that no longer round-trip — so callers fall
    back to shipping bytes.  The check re-reads only the npy header.
    """
    if not is_mapped(array):
        return None
    path = str(array.filename)
    if not path.endswith(".npy") or not array.flags.c_contiguous:
        return None
    try:
        probe = np.load(path, mmap_mode="r", allow_pickle=False)
    except Exception:
        return None
    if (
        probe.shape != array.shape
        or probe.dtype != array.dtype
        or getattr(probe, "offset", None) != getattr(array, "offset", None)
    ):
        return None
    return path, str(array.dtype), tuple(int(s) for s in array.shape)

