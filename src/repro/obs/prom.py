"""Prometheus text exposition (format 0.0.4) over MetricsRegistry.

The live metrics plane serves ``GET /v1/metrics`` from the experiment
service; this module owns the wire format so the service stays a thin
adapter.  Only the subset of the exposition format we emit is
implemented: ``# HELP`` / ``# TYPE`` headers, counter/gauge samples,
and summaries (quantile-labelled samples plus ``_sum``/``_count``).
Output is deterministic — families sorted by name, label sets sorted
by label name — so a golden-file test can pin the format.

:func:`parse_prometheus` is the matching reader used by the smoke
tests; it handles exactly what :func:`render_prometheus` writes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.obs.metrics import MetricsRegistry

#: Quantiles a histogram is summarized at.
SUMMARY_QUANTILES = (50.0, 90.0, 99.0)

_NAME_OK = re.compile(r"[^a-zA-Z0-9_:]")

#: One sample: (labels, value).
Sample = Tuple[Dict[str, str], float]


@dataclass
class MetricFamily:
    """One named metric with zero or more labelled samples."""

    name: str
    kind: str  # "counter" | "gauge" | "summary"
    help: str = ""
    samples: List[Sample] = field(default_factory=list)
    #: For summaries: the ``_sum`` / ``_count`` pair.
    sum_count: Optional[Tuple[float, float]] = None

    def add(self, value: float, **labels: str) -> "MetricFamily":
        self.samples.append((dict(labels), float(value)))
        return self


def sanitize_name(name: str) -> str:
    """A metric-safe name: dots and dashes become underscores."""
    return _NAME_OK.sub("_", name)


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _format_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _format_labels(labels: Dict[str, str]) -> str:
    if not labels:
        return ""
    parts = [
        f'{sanitize_name(key)}="{_escape_label(str(val))}"'
        for key, val in sorted(labels.items())
    ]
    return "{" + ",".join(parts) + "}"


def render_prometheus(families: List[MetricFamily]) -> str:
    """The exposition document; always ends with a newline."""
    lines: List[str] = []
    for fam in sorted(families, key=lambda f: f.name):
        name = sanitize_name(fam.name)
        help_text = fam.help or name.replace("_", " ")
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} {fam.kind}")
        for labels, value in sorted(
            fam.samples, key=lambda s: sorted(s[0].items())
        ):
            lines.append(
                f"{name}{_format_labels(labels)} {_format_value(value)}"
            )
        if fam.kind == "summary" and fam.sum_count is not None:
            total, count = fam.sum_count
            lines.append(f"{name}_sum {_format_value(total)}")
            lines.append(f"{name}_count {_format_value(count)}")
    return "\n".join(lines) + "\n"


def registry_families(
    registry: MetricsRegistry, prefix: str = "repro"
) -> List[MetricFamily]:
    """Families for every instrument in ``registry``.

    Counters gain the conventional ``_total`` suffix, histograms
    become summaries at :data:`SUMMARY_QUANTILES`.
    """
    doc = registry.to_dict()
    families: List[MetricFamily] = []
    for name, value in sorted(doc.get("counters", {}).items()):
        fam_name = f"{prefix}_{sanitize_name(name)}"
        if not fam_name.endswith("_total"):
            fam_name += "_total"
        families.append(
            MetricFamily(fam_name, "counter").add(float(value))
        )
    for name, value in sorted(doc.get("gauges", {}).items()):
        if value is None:
            continue
        families.append(
            MetricFamily(
                f"{prefix}_{sanitize_name(name)}", "gauge"
            ).add(float(value))
        )
    for name in sorted(doc.get("histograms", {})):
        hist = registry.histogram(name)
        if not hist.count:
            continue
        summary = hist.summary()
        fam = MetricFamily(
            f"{prefix}_{sanitize_name(name)}",
            "summary",
            sum_count=(float(summary["sum"]), float(summary["count"])),
        )
        for pct in SUMMARY_QUANTILES:
            value = hist.percentile(pct)
            if value is not None:
                fam.add(value, quantile=str(pct / 100.0))
        families.append(fam)
    return families


def parse_prometheus(text: str) -> Dict[str, List[Sample]]:
    """``{family_name: [(labels, value), ...]}`` for a document
    produced by :func:`render_prometheus`.  ``_sum``/``_count`` lines
    parse as their own names."""
    out: Dict[str, List[Sample]] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        labels: Dict[str, str] = {}
        if "{" in line:
            name, rest = line.split("{", 1)
            body, tail = rest.rsplit("}", 1)
            value_text = tail.strip()
            for pair in re.findall(r'(\w+)="((?:[^"\\]|\\.)*)"', body):
                key, raw = pair
                labels[key] = (
                    raw.replace("\\n", "\n")
                    .replace('\\"', '"')
                    .replace("\\\\", "\\")
                )
        else:
            name, value_text = line.rsplit(None, 1)
        try:
            value = float(value_text)
        except ValueError:
            continue
        out.setdefault(name.strip(), []).append((labels, value))
    return out


__all__ = [
    "MetricFamily",
    "SUMMARY_QUANTILES",
    "Sample",
    "parse_prometheus",
    "registry_families",
    "render_prometheus",
    "sanitize_name",
]
