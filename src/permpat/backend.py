"""Kernel backend selection.

The compiled kernels (``_kernels.c``, built on first import) are preferred
when they build and load; the pure-Python kernels are a drop-in fallback.
Setting the environment variable ``PERMPAT_PURE=1`` forces the pure backend
without touching the compiled path (useful for benchmarking and for
testing both paths).
"""
from __future__ import annotations

import os

from permpat import _kernels_py

if os.environ.get("PERMPAT_PURE", "") not in ("", "0"):
    _impl = _kernels_py
else:
    try:
        from permpat import _kernels as _impl  # type: ignore[no-redef]
    except ImportError:
        _impl = _kernels_py

count_pattern = _impl.count_pattern
count_inversions = _impl.count_inversions

BACKEND_NAME: str = _impl.BACKEND_NAME
