"""The string series-key codec the metrics registry used to key by.

The registry now keys series structurally and renders the text form
only when it exports (``repro.obs.metrics.render_series``).  This is
the earlier implementation, kept as the oracle the renderer must
match: :func:`series_key` flattens ``name`` + ``labels`` into the
exported text form, :func:`split_series_key` parses it back.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple


def _escape(text: str) -> str:
    """Backslash-escape the key syntax characters inside a label part."""
    return (
        text.replace("\\", "\\\\").replace(",", "\\,").replace("=", "\\=")
    )


def series_key(name: str, labels: Dict[str, object]) -> str:
    """Flatten ``name`` + ``labels`` into one deterministic series key."""
    if not labels:
        return name
    inner = ",".join(
        f"{_escape(str(k))}={_escape(str(labels[k]))}" for k in sorted(labels)
    )
    return f"{name}{{{inner}}}"


def split_series_key(key: str) -> Tuple[str, Dict[str, str]]:
    """Inverse of :func:`series_key` (labels come back as strings)."""
    if not key.endswith("}") or "{" not in key:
        return key, {}
    name, _, inner = key.partition("{")
    labels: Dict[str, str] = {}
    buf: List[str] = []
    label: Optional[str] = None
    escaped = False

    def flush() -> None:
        nonlocal label, buf
        if label is not None:
            labels[label] = "".join(buf)
        elif buf:
            labels["".join(buf)] = ""
        label, buf = None, []

    for ch in inner[:-1]:
        if escaped:
            buf.append(ch)
            escaped = False
        elif ch == "\\":
            escaped = True
        elif ch == "=" and label is None:
            label = "".join(buf)
            buf = []
        elif ch == ",":
            flush()
        else:
            buf.append(ch)
    flush()
    return name, labels
