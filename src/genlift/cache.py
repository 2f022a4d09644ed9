"""Disk cache for orbit decompositions.

The Nielsen rep rows (the orbit labels of the pairs whose first entry is
a conjugacy class representative, -1 for pairs that do not generate) are
the expensive artifact shared by all claim drivers.  An entry is one
.npy file keyed by (tool version, schema version, group name); writes go
to a temp file and are renamed into place so concurrent readers never see
a partial entry.  An entry that cannot be read or does not look like a
labelling of the expected shape is a miss.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import Optional

import numpy as np

SCHEMA_VERSION = 2
TOOL_VERSION = "0.1.0"

ENV_CACHE_DIR = "GENLIFT_CACHE_DIR"


def default_cache_dir() -> Path:
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "genlift"


def _path(cache_dir: Path, group_name: str) -> Path:
    safe = group_name.replace("(", "_").replace(")", "").replace(",", "-")
    ver = TOOL_VERSION.replace(".", "-")
    return Path(cache_dir) / f"v{ver}-s{SCHEMA_VERSION}_{safe}_gamma.npy"


def load_labels(cache_dir: Path, group_name: str, shape: tuple[int, int]) -> Optional[np.ndarray]:
    """The cached rep rows of the group, or None unless they form an integer
    array of this (K, n) shape with every label in [-1, K * n)."""
    try:
        rows = np.load(_path(cache_dir, group_name))
    except (OSError, ValueError, EOFError):
        return None
    if not isinstance(rows, np.ndarray) or rows.shape != tuple(shape) or rows.dtype.kind not in "iu":
        return None
    if rows.min() < -1 or rows.max() >= rows.size:
        return None
    return rows


def save_labels(cache_dir: Path, group_name: str, labels: np.ndarray) -> None:
    path = _path(cache_dir, group_name)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, suffix=".npy.tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            np.save(fh, labels)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
