"""Compiled kernels: ``_kernels.c`` loaded through ctypes.

Same contract as ``permpat._kernels_py``; selected at import time by
``permpat.backend`` when available.  The first import compiles the C
source with ``cc`` into the per-user cache,
``${XDG_CACHE_HOME:-~/.cache}/permpat/``, under a name keyed by the source
bytes, the compiler flags and the machine type; later imports only load
it.  Importing raises ImportError when the build or the load fails, which
leaves the pure-Python kernels in charge.

Every function reads an ``array('l')`` argument in place and copies any
other sequence into one first.  ``parse_values`` parses ASCII digits and
separators in C, telling canonical text on the same walk, and hands any
other text to the pure-Python parser.
"""
from __future__ import annotations

import ctypes
import os
import zlib
from array import ArrayType, array
from typing import Sequence

from permpat import _kernels_py

BACKEND_NAME = "compiled"

# Functions start on 64-byte boundaries, so the inner loops of count_pattern's
# search keep their place within cache lines when code elsewhere in the file
# changes: moving count_pattern by 16 bytes, with its code unchanged, once
# slowed the kernel calls of the gap-verify benchmark by about 13% (x86-64,
# gcc -O2).
_FLAGS = ("-O2", "-falign-functions=64", "-shared", "-fPIC")
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
    c_long, c_void_p = ctypes.c_long, ctypes.c_void_p
    signatures = {
        "count_pattern": (ctypes.c_longlong, (c_void_p, c_long, c_void_p, c_long, ctypes.c_int, ctypes.c_longlong)),
        "count_inversions": (ctypes.c_longlong, (c_void_p, c_long)),
        "is_permutation": (ctypes.c_int, (c_void_p, c_long)),
        "count_values": (c_long, (ctypes.c_char_p, c_long, ctypes.POINTER(ctypes.c_int))),
        "parse_values": (None, (ctypes.c_char_p, c_long, c_void_p)),
        "format_length": (c_long, (c_void_p, c_long)),
        "format_values": (None, (c_void_p, c_long, c_void_p)),
    }
    for name, (restype, argtypes) in signatures.items():
        try:
            fn = getattr(lib, name)
        except AttributeError as exc:
            raise ImportError(f"the compiled kernels lack a function: {exc}") from exc
        fn.restype, fn.argtypes = restype, argtypes
    return lib


_lib = _load()


def _packed(values: Sequence[int]) -> array:
    """values itself when it is an array('l'), else a copy into one."""
    if isinstance(values, ArrayType) and values.typecode == "l":
        return values
    return array("l", values)


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
    found (limit=1 is detection).  The C search indexes arrays by pattern
    values, so a pattern that is not a permutation of 1..k raises
    ValueError.
    """
    k = len(pattern)
    n = len(text)
    if k == 0:
        raise ValueError("empty pattern")
    if k > n:
        return 0
    pat = _packed(pattern)
    txt = _packed(text)
    total = _lib.count_pattern(
        pat.buffer_info()[0], k, txt.buffer_info()[0], n, bool(pin_first),
        max(-_LLONG_MAX, min(limit, _LLONG_MAX)),
    )
    if total == -2:
        raise ValueError(f"count_pattern needs a pattern of distinct values in 1..{k}")
    if total < 0:
        raise MemoryError()
    return total


def count_inversions(values: Sequence[int]) -> int:
    """Number of pairs i < j with values[i] > values[j], for a permutation
    of 1..len(values), by one pass over a bitset of the values seen and a
    Fenwick tree of its 64-bit words.

    A value outside 1..n, also one past a C long, or a repeated one raises
    ValueError.
    """
    try:
        vals = _packed(values)
    except OverflowError:  # a value past a C long is outside 1..n
        inv = -2
    else:
        inv = _lib.count_inversions(vals.buffer_info()[0], len(vals))
    if inv == -2:
        raise ValueError(f"count_inversions needs distinct values in 1..{len(values)}")
    if inv < 0:
        raise MemoryError()
    return inv


def is_permutation(values: Sequence[int]) -> bool:
    """Whether values holds each of 1..len(values) exactly once."""
    try:
        vals = _packed(values)
    except OverflowError:  # a value past a C long is outside 1..n
        return False
    ok = _lib.is_permutation(vals.buffer_info()[0], len(vals))
    if ok < 0:
        raise MemoryError()
    return bool(ok)


def parse_values(text: str) -> tuple[array, bool]:
    """The whitespace-separated integers of text, as ``int`` reads each one,
    and whether text, less one final newline, is their ``format_values``."""
    try:
        raw = text.encode("ascii")
    except UnicodeEncodeError:
        return _kernels_py.parse_values(text)
    canonical = ctypes.c_int()
    count = _lib.count_values(raw, len(raw), ctypes.byref(canonical))
    if count < 0:  # signs, underscores, tokens of 19 or more digits
        return _kernels_py.parse_values(text)
    vals = array("l", [0]) * count
    _lib.parse_values(raw, len(raw), vals.buffer_info()[0])
    return vals, bool(canonical.value)


def format_values(values: Sequence[int]) -> str:
    """The decimals of values joined by single spaces."""
    vals = _packed(values)
    address, n = vals.buffer_info()
    out = bytearray(_lib.format_length(address, n))
    if out:
        _lib.format_values(address, n, ctypes.addressof(ctypes.c_char.from_buffer(out)))
    return out.decode("ascii")
