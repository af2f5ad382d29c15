"""Compiled matching kernels: ``_kernels.c`` loaded through ctypes.

Same contract as ``permpat._kernels_py``; selected at import time by
``permpat.backend`` when available.  The first import compiles the C
source with ``cc`` into the per-user cache,
``${XDG_CACHE_HOME:-~/.cache}/permpat/``, under a name keyed by the source
bytes, the compiler flags and the machine type; later imports only load
it.  Importing raises ImportError when the build or the load fails, which
leaves the pure-Python kernels in charge.
"""
from __future__ import annotations

import ctypes
import os
import zlib
from array import array
from typing import Sequence

BACKEND_NAME = "compiled"

_FLAGS = ("-O2", "-shared", "-fPIC")
# ctypes wraps out-of-range integers silently: c_longlong(2**70) is 0
_LLONG_MAX = 2**63 - 1


def _library_path(source: bytes) -> str:
    """Cache path of the shared library built from ``source``."""
    key = zlib.crc32(" ".join((*_FLAGS, os.uname().machine)).encode(), zlib.crc32(source))
    cache = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(cache, "permpat", f"_kernels-{key:08x}.so")


def _build(source: bytes, target: str) -> None:
    """Compile ``source`` to ``target``; ImportError when that fails.

    The compiler writes a temporary file in the target's directory, which
    is then renamed into place, so concurrent imports never load a partial
    library.
    """
    import subprocess
    import tempfile

    directory = os.path.dirname(target)
    try:
        os.makedirs(directory, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=directory)
        os.close(fd)
        try:
            subprocess.run(
                ["cc", *_FLAGS, "-o", tmp, "-x", "c", "-"],
                input=source, capture_output=True, check=True, timeout=120,
            )
            os.replace(tmp, target)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
    except (OSError, subprocess.SubprocessError) as exc:
        raise ImportError(f"building the compiled kernels failed: {exc}") from exc


def _load() -> ctypes.CDLL:
    with open(os.path.join(os.path.dirname(__file__), "_kernels.c"), "rb") as fh:
        source = fh.read()
    path = _library_path(source)
    try:
        lib = ctypes.CDLL(path)
    except OSError:  # not built yet, or left unloadable: build it afresh
        _build(source, path)
        try:
            lib = ctypes.CDLL(path)
        except OSError as exc:
            raise ImportError(f"loading the compiled kernels failed: {exc}") from exc
    try:
        count_pattern, count_inversions = lib.count_pattern, lib.count_inversions
    except AttributeError as exc:
        raise ImportError(f"the compiled kernels lack a function: {exc}") from exc
    count_pattern.argtypes = (
        ctypes.c_void_p, ctypes.c_long, ctypes.c_void_p, ctypes.c_long, ctypes.c_int, ctypes.c_longlong,
    )
    count_pattern.restype = ctypes.c_longlong
    count_inversions.argtypes = (ctypes.c_void_p, ctypes.c_long)
    count_inversions.restype = ctypes.c_longlong
    return lib


_lib = _load()


def count_pattern(
    pattern: Sequence[int],
    text: Sequence[int],
    pin_first: bool = False,
    limit: int = 0,
) -> int:
    """Count order-isomorphic occurrences of pattern in text.

    Backtracks over pattern positions left to right, pruning candidate text
    elements by the value interval implied by the partial match.  With
    ``pin_first`` the first pattern element must use the first text element.
    A positive ``limit`` stops the search once that many occurrences are
    found (limit=1 is detection).
    """
    k = len(pattern)
    n = len(text)
    if k == 0:
        raise ValueError("empty pattern")
    if k > n:
        return 0
    pat = array("l", pattern)
    txt = array("l", text)
    total = _lib.count_pattern(
        pat.buffer_info()[0], k, txt.buffer_info()[0], n, bool(pin_first),
        max(-_LLONG_MAX, min(limit, _LLONG_MAX)),
    )
    if total < 0:
        raise MemoryError()
    return total


def count_inversions(values: Sequence[int]) -> int:
    """Number of pairs i < j with values[i] > values[j], by merge counting."""
    vals = array("l", values)
    inv = _lib.count_inversions(vals.buffer_info()[0], len(vals))
    if inv < 0:
        raise MemoryError()
    return inv
