"""Reading Prometheus text exposition in the tests and the CI scrape checks."""

from __future__ import annotations

import re

_NAME = re.compile(r"[a-zA-Z_:][a-zA-Z0-9_:]*")


def parse_prometheus(text: str) -> dict[str, float]:
    """Parse Prometheus text format into ``{sample_name_with_labels: value}``.

    A strict-enough validator for tests and CI smoke checks: raises
    :class:`ValueError` on any line that is neither a comment nor a
    ``name[{labels}] value`` sample, and on non-float sample values.
    """
    samples: dict[str, float] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.rsplit(None, 1)
        if len(parts) != 2:
            raise ValueError(f"line {lineno}: not a sample: {line!r}")
        key, raw = parts
        name = key.split("{", 1)[0]
        if "{" in key and not key.endswith("}"):
            raise ValueError(f"line {lineno}: unterminated label set: {line!r}")
        if not _NAME.fullmatch(name):
            raise ValueError(f"line {lineno}: invalid metric name {name!r}")
        try:
            value = float(raw.replace("+Inf", "inf").replace("-Inf", "-inf"))
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad sample value {raw!r}") from exc
        samples[key] = value
    return samples


def metric_names(text: str) -> list[str]:
    """The instrument names of an exposition, in the order it lists them."""
    return [line.split()[2] for line in text.splitlines() if line.startswith("# TYPE ")]
