"""Scatter/gather between global arrays and per-processor local parts.

The simulator's processors hold only their local parts (the paper's
``alloc``). The harness uses these helpers to distribute input arrays
before a run and to reassemble the result afterwards, so results can be
compared element-for-element with the sequential interpreter.

Both directions are driven by a cached *transfer plan* — each
element's owner and local row-major offset, built once per
(distribution, ring size, shape) — so the per-call work is flat list
copying instead of per-element symbolic evaluation. Any
irregularity (offsets out of range, exotic part objects) falls back to
the per-element path, which reproduces the exact errors.
"""

from __future__ import annotations

from functools import lru_cache

from repro.distrib.base import Distribution
from repro.errors import MappingError
from repro.runtime import IStructure
from repro.runtime.istructure import _UNDEFINED


def _cells(shape: tuple[int, ...]):
    if len(shape) == 1:
        for i in range(1, shape[0] + 1):
            yield (i,)
    elif len(shape) == 2:
        for i in range(1, shape[0] + 1):
            for j in range(1, shape[1] + 1):
                yield (i, j)
    else:
        raise MappingError(f"unsupported array rank {len(shape)}")


def _local_offset(local: tuple[int, ...], local_shape: tuple[int, ...]):
    """Row-major offset of a 1-based local cell, or None if out of range."""
    if len(local) != len(local_shape):
        return None
    off = 0
    for idx, dim in zip(local, local_shape):
        if not (isinstance(idx, int) and 1 <= idx <= dim):
            return None
        off = off * dim + (idx - 1)
    return off


def _local_cell(off: int, local_shape: tuple[int, ...]) -> tuple[int, ...]:
    """The 1-based local cell at a row-major offset (inverse of
    :func:`_local_offset`)."""
    cell = []
    for dim in reversed(local_shape):
        off, idx = divmod(off, dim)
        cell.append(idx + 1)
    return tuple(reversed(cell))


@lru_cache(maxsize=256)
def _plan(dist: Distribution, nprocs: int, shape: tuple[int, ...]):
    """Transfer plan ``(owners, offsets)``, or None when any mapping is
    irregular.

    Both are indexed by global offset in :class:`IStructure`'s row-major
    cell layout: the element's owner and its local row-major offset. Two
    flat tuples of ints keep the plans the cache holds small.
    """
    owner_of, local_of = dist.mapper(nprocs, shape)
    local_shape = dist.alloc_shape(shape, nprocs)
    owners = []
    offsets = []
    for cell in _cells(shape):
        owner = owner_of(cell)
        if not (isinstance(owner, int) and 0 <= owner < nprocs):
            return None
        off = _local_offset(tuple(local_of(cell)), local_shape)
        if off is None:
            return None
        owners.append(owner)
        offsets.append(off)
    return tuple(owners), tuple(offsets)


def scatter(
    source: IStructure, dist: Distribution, nprocs: int, name: str = "arr"
) -> list[IStructure]:
    """Split a global I-structure into per-processor local parts.

    Undefined elements of the source stay undefined in the local parts
    (I-structures are allocated empty and filled element by element).
    """
    shape = source.shape
    local_shape = dist.alloc_shape(shape, nprocs)
    parts = [
        IStructure(local_shape, name=f"{name}@p{rank}") for rank in range(nprocs)
    ]
    plan = _plan(dist, nprocs, tuple(shape)) if type(source) is IStructure else None
    if plan is not None:
        pcells = [p._cells for p in parts]
        for v, owner, loff in zip(source._cells, *plan):
            if v is _UNDEFINED:
                continue
            row = pcells[owner]
            if row[loff] is _UNDEFINED:
                row[loff] = v
                parts[owner]._defined_count += 1
            else:  # the exact second-write error
                parts[owner].write(*_local_cell(loff, local_shape), v)
        return parts
    owner_of, local_of = dist.mapper(nprocs, shape)
    for cell in _cells(shape):
        if not source.is_defined(*cell):
            continue
        parts[owner_of(cell)].write(*local_of(cell), source.read(*cell))
    return parts


def gather(
    parts: list[IStructure],
    dist: Distribution,
    nprocs: int,
    shape: tuple[int, ...],
    name: str = "arr",
) -> IStructure:
    """Reassemble a global I-structure from per-processor local parts."""
    if len(parts) != nprocs:
        raise MappingError(
            f"gather expected {nprocs} parts, got {len(parts)}"
        )
    out = IStructure(shape, name=name)
    local_shape = dist.alloc_shape(shape, nprocs)
    plan = (
        _plan(dist, nprocs, tuple(shape))
        if all(
            type(p) is IStructure and p.shape == local_shape for p in parts
        )
        else None
    )
    if plan is not None:
        ocells = out._cells
        pcells = [p._cells for p in parts]
        count = 0
        for goff, (owner, loff) in enumerate(zip(*plan)):
            v = pcells[owner][loff]
            if v is not _UNDEFINED:
                ocells[goff] = v
                count += 1
        out._defined_count = count
        return out
    owner_of, local_of = dist.mapper(nprocs, shape)
    for cell in _cells(shape):
        local = local_of(cell)
        part = parts[owner_of(cell)]
        if part.is_defined(*local):
            out.write(*cell, part.read(*local))
    return out


def make_full(shape: tuple[int, ...], fill, name: str = "arr") -> IStructure:
    """A fully defined I-structure; ``fill`` is a value or ``fn(*cell)``."""
    out = IStructure(shape, name=name)
    if not callable(fill):
        out._cells = [fill] * out.size
        out._defined_count = out.size
        return out
    for cell in _cells(shape):
        out.write(*cell, fill(*cell))
    return out
