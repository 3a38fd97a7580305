"""Deterministic binary bundle format for checkpoints and feature matrices.

Layout: magic, format version, uint64 header length, canonical-JSON header,
then raw array bytes in header order. No timestamps anywhere, so identical
content always produces identical bytes.
"""

import contextlib
import hashlib
import json
import math
import os
import secrets
import struct
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

MAGIC = b"PRTB"
FORMAT_VERSION = 1


class BundleError(Exception):
    pass


class Layout(NamedTuple):
    """A bundle kind's layout. `meta` maps each meta key, as a dotted path, to
    (type, shape), where a float may be stored as an int and a value of shape
    (a, b) is a list of a lists of b. `arrays` maps every array to (numpy scalar
    type, shape), or is a function from the checked meta to that map, raising
    ValueError for meta it cannot lay out. A shape holds ints and names. A name
    is bound where it first occurs and must match wherever it occurs again;
    "n+1" is one more than n."""
    kind: str
    meta: dict
    arrays: dict | Callable


def _check(path, meta: dict, arrays: dict, layout: Layout, sizes: dict) -> None:
    """Raise BundleError naming the file and key unless the bundle fits `layout`."""
    if meta.get("kind") != layout.kind:
        raise BundleError(f"{path}: not a {layout.kind} bundle")
    bound = {name: n if isinstance(n, tuple) else (n, "the data it is read with")
             for name, n in sizes.items()}

    def fits(shape, got, where) -> bool:
        for want, n in zip(shape, got):
            if type(want) is str:
                name, _, plus = want.partition("+")
                size, by = bound.setdefault(name, (n - int(plus or 0), where))
                if size + int(plus or 0) != n:
                    raise BundleError(f"{path}: {where} has {want} = {n}, "
                                      f"but {by} has {name} = {size}")
            elif want != n:
                return False
        return len(shape) == len(got)

    def holds(value, types, shape, key) -> bool:
        level = [value]  # the values at one depth of the nested lists
        for want in shape:
            if set(map(type, level)) - {list} or not all(
                    fits((want,), (n,), f"meta key {key!r}") for n in set(map(len, level))):
                return False
            level = level[0] if len(level) == 1 else [v for values in level for v in values]
        return set(map(type, level)) <= types

    for key, (t, shape) in layout.meta.items():
        value, parts = meta, key.split(".")
        for i, part in enumerate(parts):
            if type(value) is not dict or part not in value:
                raise BundleError(f"{path}: bundle has no meta key {'.'.join(parts[:i + 1])!r}")
            value = value[part]
        if not holds(value, {int, float} if t is float else {t}, shape, key):
            raise BundleError(f"{path}: meta key {key!r} is not {t.__name__} of shape {shape}")
    declared = layout.arrays(meta) if callable(layout.arrays) else layout.arrays
    for name, (dtype, shape) in declared.items():
        got = arrays.get(name)
        if got is None:
            raise BundleError(f"{path}: bundle has no array {name!r}")
        if not issubclass(got.dtype.type, dtype) or (
                got.shape != shape and not fits(shape, got.shape, f"array {name!r}")):
            raise BundleError(f"{path}: array {name!r} is {got.dtype} of shape {got.shape}, "
                              f"not {dtype.__name__} of shape {shape}")
    if len(arrays) > len(declared):
        raise BundleError(f"{path}: bundle holds array {min(set(arrays) - set(declared))!r}, "
                          "which its layout does not name")


def _canonical_json(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode("utf-8")


@contextlib.contextmanager
def _replacing(path):
    """A binary file object on a new sibling of `path`, renamed over `path`
    when the block ends. On an error the sibling is removed and `path` keeps
    its previous content, so no reader ever sees a partly written file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}-{secrets.token_hex(4)}.tmp")
    try:
        with open(tmp, "xb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_bundle(path, meta: dict, arrays: dict | None = None) -> None:
    """Write meta (JSON-able) plus named float/int arrays to a single file.

    Each array's bytes are written from its own buffer, in C order; only an
    array that is not C-contiguous is copied first."""
    arrays = {name: np.asarray(arrays[name]) for name in sorted(arrays or {})}
    specs = []
    offset = 0
    for name, arr in arrays.items():  # 0-d arrays keep their empty shape
        specs.append(
            {"name": name, "dtype": str(arr.dtype), "shape": list(arr.shape), "offset": offset}
        )
        offset += arr.nbytes
    header = _canonical_json({"version": FORMAT_VERSION, "meta": meta, "arrays": specs})
    with _replacing(path) as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<I", FORMAT_VERSION))
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        for arr in arrays.values():
            if not arr.flags.c_contiguous:
                arr = arr.copy(order="C")
            fh.write(arr.reshape(-1).view(np.uint8))


def load_bundle(path, layout: Layout | None = None, **sizes):
    """Return (meta, arrays) from a bundle file, checked against `layout` if one
    is given, with `sizes` binding some of its names, each to a size or to
    (size, where the size comes from), which a mismatch names.

    The payload is read once into one writable buffer and the arrays are views
    into it; a view that would start off its dtype's alignment is copied.
    A short, truncated or malformed file (a header length past the end of the
    file, a shape that is not non-negative integers), or one that does not
    hold what `layout` declares, raises BundleError.
    """
    with open(path, "rb") as fh:
        preamble = fh.read(16)
        if len(preamble) < 16:
            raise BundleError(f"{path}: truncated bundle (short preamble)")
        if preamble[:4] != MAGIC:
            raise BundleError(f"{path}: not a bundle file (bad magic)")
        version, hlen = struct.unpack("<IQ", preamble[4:])
        if version != FORMAT_VERSION:
            raise BundleError(f"{path}: unsupported bundle version {version}")
        size = os.fstat(fh.fileno()).st_size
        if hlen > size - fh.tell():  # checked first: the read would allocate hlen bytes
            raise BundleError(f"{path}: truncated bundle (header runs past end of file)")
        raw_header = fh.read(hlen)
        payload = np.empty(size - fh.tell(), dtype=np.uint8)
        if len(raw_header) < hlen or fh.readinto(payload) != payload.size:
            raise BundleError(f"{path}: bundle changed while it was read")
    try:
        header = json.loads(raw_header)
        arrays = {}
        for spec in header["arrays"]:
            dtype = np.dtype(spec["dtype"])
            shape = tuple(spec["shape"])
            if not all(type(n) is int and n >= 0 for n in shape):
                raise BundleError(f"{path}: malformed bundle header (array {spec['name']!r} "
                                  f"has shape {spec['shape']!r})")
            start = int(spec["offset"])
            end = start + dtype.itemsize * math.prod(shape)
            if start < 0 or end > payload.size:
                raise BundleError(f"{path}: truncated bundle (array {spec['name']!r} "
                                  f"runs past end of payload)")
            arr = payload[start:end].view(dtype).reshape(shape)
            arrays[spec["name"]] = arr if arr.flags.aligned else arr.copy()
        if layout is not None:
            _check(path, header["meta"], arrays, layout, sizes)
        return header["meta"], arrays
    except (ValueError, KeyError, TypeError, AttributeError) as e:  # incl. JSONDecodeError
        raise BundleError(f"{path}: malformed bundle header ({e})") from e


def sha256_file(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def sha256_obj(obj) -> str:
    return hashlib.sha256(_canonical_json(obj)).hexdigest()


def write_lines(path, lines) -> None:
    """Write each string of `lines`, as UTF-8, replacing `path` whole."""
    with _replacing(path) as fh:
        for line in lines:
            fh.write(line.encode("utf-8"))


def write_json(path, obj) -> None:
    """Write `obj` as indented JSON with sorted keys, replacing `path` whole."""
    write_lines(path, [json.dumps(obj, sort_keys=True, indent=2) + "\n"])
