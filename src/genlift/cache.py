"""Disk cache for orbit decompositions.

The Nielsen labels of the generating pairs (-1 for other pairs) are
the expensive artifact shared by all claim drivers.  Entries are keyed
by (tool version, group name); writes go to a temp file and are renamed
into place so concurrent readers never see a partial entry.  An entry
that cannot be read or does not look like a labelling is a miss.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path
from typing import Optional

import numpy as np

SCHEMA_VERSION = 1
TOOL_VERSION = "0.1.0"

ENV_CACHE_DIR = "GENLIFT_CACHE_DIR"


def default_cache_dir() -> Path:
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "genlift"


def _key(group_name: str) -> str:
    safe = group_name.replace("(", "_").replace(")", "").replace(",", "-")
    ver = TOOL_VERSION.replace(".", "-")
    return f"v{ver}_{safe}_gamma"


def load_labels(cache_dir: Path, group_name: str, n: int) -> Optional[np.ndarray]:
    base = Path(cache_dir) / _key(group_name)
    # with_suffix would eat anything after a dot in the key, so append
    meta_path = Path(str(base) + ".json")
    data_path = Path(str(base) + ".npy")
    if not (meta_path.exists() and data_path.exists()):
        return None
    try:
        meta = json.loads(meta_path.read_text())
    except (OSError, ValueError):
        return None
    if not isinstance(meta, dict) or meta.get("schema") != SCHEMA_VERSION or meta.get("n") != n:
        return None
    try:
        labels = np.load(data_path)
    except (OSError, ValueError, EOFError):
        return None
    if labels.shape != (n * n,) or labels.dtype.kind not in "iu":
        return None
    if labels.min() < -1 or labels.max() >= n * n:
        return None
    return labels


def save_labels(cache_dir: Path, group_name: str, n: int, labels: np.ndarray) -> None:
    cache_dir = Path(cache_dir)
    cache_dir.mkdir(parents=True, exist_ok=True)
    base = cache_dir / _key(group_name)
    meta = {
        "schema": SCHEMA_VERSION,
        "tool_version": TOOL_VERSION,
        "group": group_name,
        "n": n,
    }
    payloads = (
        (".npy", lambda fh: np.save(fh, labels)),
        (".json", lambda fh: fh.write(json.dumps(meta, sort_keys=True).encode())),
    )
    for suffix, write in payloads:
        fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=suffix + ".tmp")
        try:
            with os.fdopen(fd, "wb") as fh:
                write(fh)
            os.replace(tmp, str(base) + suffix)
        finally:
            if os.path.exists(tmp):
                os.unlink(tmp)
