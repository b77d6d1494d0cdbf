"""Parquet read wrapper: strip file-level schema metadata at the source.

Pandas-written parquet carries a ``b"pandas"`` schema-metadata blob; the
bundled pyarrow's ``Schema.__hash__`` raises ``TypeError: unhashable type:
'dict'`` on ANY schema with metadata, which disables Ray Data's schema
deduplication fast path and emits a ``Failed to hash the schemas`` warning
from every worker that concatenates raw-read blocks into batches.  Dropping
the metadata right at the read (a zero-copy ``replace_schema_metadata`` per
block, fused into the read stage with ``batch_size=None`` so blocks are
never re-chunked) makes every downstream schema hashable.  The metadata is
purely pandas index bookkeeping — no engine semantics depend on it.
"""

from __future__ import annotations

import pyarrow as pa

import ray.data


def _strip_schema_metadata(t: pa.Table) -> pa.Table:
    return t.replace_schema_metadata(None) if t.schema.metadata else t


def _inject_stripped_schema(args: tuple, kwargs: dict) -> bool:
    """Set ``kwargs["schema"]`` to the files' physical schema minus metadata.

    Ray's parquet read task builds each output block with
    ``pa.Table.from_batches([batch], schema=schema)`` — with ``schema=None``
    the blocks inherit the file's pandas metadata INSIDE the read task, so a
    post-read strip stage can't stop the per-worker ``Failed to hash the
    schemas`` warning (``SplitBlocks`` prevents fusing the strip into the
    read). Passing a metadata-free schema fixes it at the source.

    Returns False (leaving kwargs untouched) whenever injection could change
    semantics: caller already passed schema/_block_udf or a partitioning
    other than None, a requested column is not in the physical file
    schema, or schema discovery fails — and, under Ray's default hive
    partitioning, whenever a file sits below a ``key=value`` directory
    (Ray adds that key as a column from the path, by the same segment rule
    as below; an injected file schema would drop it)."""
    if any(k in kwargs for k in ("schema", "_block_udf")):
        return False
    hive = "partitioning" not in kwargs
    if not hive and kwargs["partitioning"] is not None:
        return False
    paths = args[0] if args else kwargs.get("paths")
    if paths is None:
        return False
    try:
        import pyarrow.dataset as pads

        pa_ds = pads.dataset(
            paths, format="parquet", filesystem=kwargs.get("filesystem")
        )
        if hive and any(
            seg.count("=") == 1
            for f in pa_ds.files
            for seg in f.split("/")[:-1]
        ):
            return False
        schema = pa_ds.schema.remove_metadata()
        cols = kwargs.get("columns")
        if cols:
            if any(c not in schema.names for c in cols):
                return False
            schema = pa.schema([schema.field(c) for c in cols])
        kwargs["schema"] = schema
        return True
    except Exception:
        return False


def read_parquet(*args, **kwargs) -> "ray.data.Dataset":
    """``ray.data.read_parquet`` with hashable (metadata-free) block schemas."""
    if _inject_stripped_schema(args, kwargs):
        return ray.data.read_parquet(*args, **kwargs)
    return ray.data.read_parquet(*args, **kwargs).map_batches(
        _strip_schema_metadata, batch_format="pyarrow", batch_size=None
    )


# ---------------------------------------------------------------------------
# broadcast handles — ray.put once, read zero-copy per actor, restart-safe
# ---------------------------------------------------------------------------

_BROADCAST_KEY = "__raydedup_broadcast__"

# Stay comfortably under Ray's ~100 KB task-arg inline threshold: args
# above it are promoted to plasma by the owner, which re-creates the very
# ray#53727 restart dependency this function exists to avoid.
_BROADCAST_INLINE_LIMIT = 64 << 10


def _payload_bytes(obj) -> int | None:
    """Cheap recursive size estimate for the broadcast payload shapes this
    repo uses (ndarrays / bytes / tuples-lists of them); None = unknown."""
    import numpy as np

    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (bytes, bytearray)):
        return len(obj)
    if isinstance(obj, (tuple, list)):
        total = 0
        for x in obj:
            n = _payload_bytes(x)
            if n is None:
                return None
            total += n
        return total
    return None


def put_broadcast(obj, inline_limit: int = _BROADCAST_INLINE_LIMIT):
    """Broadcast handle for an actor pool's ``fn_constructor_kwargs``.

    Ray warns (and on a real cluster risks an unrestartable actor) when a
    ``max_restarts > 0`` actor's creation args depend on the object store
    in ANY form — a bare ObjectRef, a ref nested inside a container, or a
    by-value arg large enough (> ~100 KB) that Ray promotes it to plasma
    (ray issue 53727; nesting does NOT dodge the dependency tracking).

    So: SMALL payloads (≤ ``inline_limit``) are returned by value — they
    serialize inline in the actor creation task spec, giving restarts zero
    object-store dependencies. BIG payloads are ``ray.put`` once (one
    plasma copy, zero-copy reads in every actor) with the ref nested in a
    dict; the put is driver-side, so the driver OWNS the primary copy and
    pins it while the dataset plan holds the ref — losing it requires
    losing the driver node, which ends the job anyway. The warning Ray
    logs for these big broadcasts is therefore accepted: the alternative
    (shipping the table by value into every actor's creation spec) copies
    it per actor instead of once per node."""
    import ray

    n = _payload_bytes(obj)
    if n is not None and n <= inline_limit:
        return obj
    return {_BROADCAST_KEY: ray.put(obj)}


def broadcast_value(handle):
    """Resolve a :func:`put_broadcast` handle, a bare ObjectRef, or a plain
    value (tests construct stages directly with in-process arrays)."""
    import ray

    if isinstance(handle, dict) and _BROADCAST_KEY in handle:
        handle = handle[_BROADCAST_KEY]
    return ray.get(handle) if isinstance(handle, ray.ObjectRef) else handle
