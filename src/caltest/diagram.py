"""Reliability diagrams: the standard form and the test-based form.

The test-based form augments the standard per-bin summary with the within-bin
prediction distribution (quartiles plus a small density histogram, drawn as a
mirrored violin) and the percentage of predictions the statistical test
rejects in each bin. Rendering is plain SVG text with fixed float formatting,
so identical specs produce byte-identical documents.
"""
from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .core import Bin, BinSet, Dataset, json_safe, partition
from .metrics import MetricReport, tce
from .stattest import TestConfig

__all__ = ["DiagramBin", "DiagramSpec", "build_diagram", "render_svg"]

GLOBAL_HIST_BUCKETS = 50
VIOLIN_BUCKETS = 20
_QUARTILES = np.array([0.25, 0.5, 0.75])  # np.percentile's [25, 50, 75] over 100


@dataclass(frozen=True)
class DiagramBin:
    bin: Bin
    count: int
    empirical_prob: float
    mean_prediction: float
    rejection_pct: float | None = None
    quartiles: tuple[float, float, float] | None = None
    density: tuple[int, ...] | None = None


@dataclass(frozen=True)
class DiagramSpec:
    kind: str
    n: int
    bins: tuple[DiagramBin, ...]
    histogram_edges: tuple[float, ...]
    histogram_counts: tuple[int, ...]
    config: dict

    def to_json(self) -> str:
        payload = {"schema_version": 1, **asdict(self)}
        # Each bin's interval fields sit beside its counts, not under "bin".
        payload["bins"] = [{**entry.pop("bin"), **entry} for entry in payload["bins"]]
        return json.dumps(json_safe(payload), indent=2, sort_keys=True)


def build_diagram(
    dataset: Dataset,
    bins: BinSet,
    cfg: TestConfig | None = None,
    kind: str = "standard",
) -> DiagramSpec:
    """Assemble the renderable description of a reliability diagram.

    The numbers are taken straight from the partition (and, for the
    test-based kind, from the test-based metric report), so the diagram can
    never drift from the reported metrics.
    """
    if kind not in ("standard", "test_based"):
        raise ValueError(f"unknown diagram kind {kind!r}")
    if kind == "test_based" and cfg is None:
        raise ValueError("test_based diagrams need a TestConfig")
    binned = partition(dataset, bins)
    report: MetricReport | None = None
    if kind == "test_based":
        report = tce(dataset, bins, cfg)

    entries = []
    for b in range(len(bins)):
        interval = bins.bins[b]
        rejection = quartiles = density = None
        if kind == "test_based":
            rejection = report.per_bin[b].loss
            preds_b = binned.predictions_in(b)
            if preds_b.size > 0:
                quartiles = tuple(float(v) for v in _sorted_quartiles(preds_b))
                counts, _ = _sorted_histogram(preds_b, VIOLIN_BUCKETS, interval.lower, interval.upper)
                density = tuple(int(c) for c in counts)
        entries.append(
            DiagramBin(
                bin=interval,
                count=int(binned.counts[b]),
                empirical_prob=float(binned.empirical_prob[b]),
                mean_prediction=float(binned.mean_prediction[b]),
                rejection_pct=rejection,
                quartiles=quartiles,
                density=density,
            )
        )

    hist_counts, hist_edges = _sorted_histogram(
        dataset.sorted_predictions, GLOBAL_HIST_BUCKETS, 0.0, 1.0
    )
    config: dict = {"num_bins": len(bins)}
    if kind == "test_based":
        config.update({"test": cfg.kind, "alpha": cfg.alpha})
    return DiagramSpec(
        kind=kind,
        n=dataset.n,
        bins=tuple(entries),
        histogram_edges=tuple(float(e) for e in hist_edges),
        histogram_counts=tuple(int(c) for c in hist_counts),
        config=config,
    )


def _sorted_histogram(
    values: np.ndarray, buckets: int, lower: float, upper: float
) -> tuple[np.ndarray, np.ndarray]:
    """``np.histogram(values, buckets, (lower, upper))`` of ascending values, by binary search.

    The edges are numpy's own. numpy puts each value in the bucket those
    edges bound, [e_i, e_i+1) and the last closed, so the counts are the
    gaps between the edges' positions in the values and no per-value array
    is made.
    """
    edges = np.histogram_bin_edges(values, buckets, (lower, upper))
    ends = np.searchsorted(values, edges, side="left")
    ends[-1] = np.searchsorted(values, edges[-1], side="right")
    return np.diff(ends), edges


def _sorted_quartiles(values: np.ndarray) -> np.ndarray:
    """``np.percentile(values, [25, 50, 75])`` of ascending values in [0, 1], read in place.

    numpy's linear rule: the values at the floor of the virtual index
    (n - 1)·q and one above, joined by numpy's ``_lerp``, which steps back
    from the upper value when t >= 0.5. np.percentile partitions a copy,
    which may swap -0.0 and 0.0, so values holding a -0.0 are left to it.
    """
    if np.signbit(values[: np.searchsorted(values, 0.0, side="right")]).any():
        return np.percentile(values, [25, 50, 75])
    virtual = (values.size - 1) * _QUARTILES
    lower = np.floor(virtual)
    t = virtual - lower
    lower = lower.astype(np.intp)
    a, b = values[lower], values[np.minimum(lower + 1, values.size - 1)]
    diff = b - a
    quartiles = a + diff * t
    np.subtract(b, diff * (1 - t), out=quartiles, where=t >= 0.5)
    return quartiles


def _f(v: float) -> str:
    return f"{v:.2f}"


def _esc(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


class _Canvas:
    """Collects SVG elements with fixed-precision coordinates."""

    def __init__(self) -> None:
        self.parts: list[str] = []

    def line(self, x1, y1, x2, y2, stroke, width=1.0, dash=None):
        d = f' stroke-dasharray="{dash}"' if dash else ""
        self.parts.append(
            f'<line x1="{_f(x1)}" y1="{_f(y1)}" x2="{_f(x2)}" y2="{_f(y2)}" '
            f'stroke="{stroke}" stroke-width="{_f(width)}"{d}/>'
        )

    def rect(self, x, y, w, h, fill):
        self.parts.append(
            f'<rect x="{_f(x)}" y="{_f(y)}" width="{_f(w)}" height="{_f(h)}" fill="{fill}"/>'
        )

    def polygon(self, points, fill):
        pts = " ".join(f"{_f(x)},{_f(y)}" for x, y in points)
        self.parts.append(f'<polygon points="{pts}" fill="{fill}" stroke="none"/>')

    def circle(self, cx, cy, r, fill):
        self.parts.append(f'<circle cx="{_f(cx)}" cy="{_f(cy)}" r="{_f(r)}" fill="{fill}"/>')

    def text(self, x, y, content, size=10, anchor="middle"):
        self.parts.append(
            f'<text x="{_f(x)}" y="{_f(y)}" text-anchor="{anchor}" font-size="{size}" '
            f'font-family="Helvetica, Arial, sans-serif" fill="#333333">{_esc(content)}</text>'
        )


def render_svg(spec: DiagramSpec, width: int = 640, height: int = 480) -> str:
    """Render a diagram spec to a standalone SVG 1.1 document.

    Layout: main panel with the per-bin content, a bottom panel with grey
    size bars (plus red rejection bars for the test-based kind), and a right
    panel with the global prediction histogram. The margins and the gap
    between panels take 94 px of each dimension; width and height must
    exceed that, or a panel would get a negative size.
    """
    margin = 42
    gap = 10
    if min(width, height) <= 2 * margin + gap:
        raise ValueError(f"width and height must exceed {2 * margin + gap} px")
    bottom_h = 0.18 * (height - 2 * margin - gap)
    right_w = 0.16 * (width - 2 * margin - gap)
    main_w = (width - 2 * margin - gap) - right_w
    main_h = (height - 2 * margin - gap) - bottom_h
    mx0, my0 = margin, margin
    mx1, my1 = margin + main_w, margin + main_h
    bx0, by0 = mx0, my1 + gap
    by1 = by0 + bottom_h
    rx0 = mx1 + gap

    def sx(v: float) -> float:
        return mx0 + v * main_w

    def sy(v: float) -> float:
        return my1 - v * main_h

    c = _Canvas()
    c.rect(0, 0, width, height, "#ffffff")

    # Main panel frame, diagonal, and axis ticks.
    c.rect(mx0, my0, main_w, main_h, "none")
    c.line(mx0, my0, mx0, my1, "#333333")
    c.line(mx0, my1, mx1, my1, "#333333")
    c.line(sx(0.0), sy(0.0), sx(1.0), sy(1.0), "#999999", dash="4,3")
    for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
        c.line(sx(tick), my1, sx(tick), my1 + 3, "#333333")
        c.text(sx(tick), my1 + 13, f"{tick:g}", size=9)
        c.line(mx0 - 3, sy(tick), mx0, sy(tick), "#333333")
        c.text(mx0 - 6, sy(tick) + 3, f"{tick:g}", size=9, anchor="end")
    c.text((mx0 + mx1) / 2, my0 - 8, "prediction vs estimated probability", size=11)

    max_count = max((b.count for b in spec.bins), default=0)
    for entry in spec.bins:
        interval = entry.bin
        x_left, x_right = sx(interval.lower), sx(interval.upper)
        c.line(x_right, my0, x_right, my1, "#dddddd", width=0.5, dash="2,3")

        if spec.kind == "test_based" and entry.density is not None and entry.count > 0:
            # Violin: the 20-bucket density mirrored around the bin centre.
            centre = (x_left + x_right) / 2
            peak = max(entry.density)
            if peak > 0:
                half = 0.42 * (x_right - x_left)
                step = (interval.upper - interval.lower) / len(entry.density)
                points = []
                for i, d in enumerate(entry.density):
                    yv = interval.lower + (i + 0.5) * step
                    points.append((centre + half * d / peak, sy(yv)))
                for i, d in reversed(list(enumerate(entry.density))):
                    yv = interval.lower + (i + 0.5) * step
                    points.append((centre - half * d / peak, sy(yv)))
                c.polygon(points, "#b8cbe4")
            if entry.quartiles is not None:
                q1, q2, q3 = entry.quartiles
                c.line(centre, sy(q1), centre, sy(q3), "#5577aa", width=1.5)
                c.circle(centre, sy(q2), 1.8, "#5577aa")
        if entry.count > 0 and not np.isnan(entry.empirical_prob):
            c.line(x_left, sy(entry.empirical_prob), x_right, sy(entry.empirical_prob), "#cc2222", width=2.0)
        if spec.kind == "standard" and entry.count > 0 and not np.isnan(entry.mean_prediction):
            c.circle(sx(entry.mean_prediction), sy(entry.empirical_prob), 2.5, "#224488")

    # Bottom panel: grey size bars, red rejection bars for the test-based kind.
    c.line(bx0, by1, mx1, by1, "#333333")
    for entry in spec.bins:
        x_left, x_right = sx(entry.bin.lower), sx(entry.bin.upper)
        span = x_right - x_left
        if max_count > 0 and entry.count > 0:
            h = (entry.count / max_count) * (by1 - by0)
            c.rect(x_left + 0.08 * span, by1 - h, 0.38 * span, h, "#aaaaaa")
        if spec.kind == "test_based" and entry.rejection_pct is not None and entry.count > 0:
            h = (entry.rejection_pct / 100.0) * (by1 - by0)
            c.rect(x_left + 0.54 * span, by1 - h, 0.38 * span, h, "#cc2222")
    c.text((bx0 + mx1) / 2, by1 + 13, "bin size (grey) / rejected % (red)", size=9)

    # Right panel: global prediction histogram, drawn sideways.
    hist_max = max(spec.histogram_counts, default=0)
    if hist_max > 0:
        for i, count in enumerate(spec.histogram_counts):
            lo = spec.histogram_edges[i]
            hi = spec.histogram_edges[i + 1]
            bar = (count / hist_max) * right_w
            c.rect(rx0, sy(hi), bar, sy(lo) - sy(hi), "#aaaaaa")
    c.line(rx0, my0, rx0, my1, "#333333")

    title = "test-based reliability diagram" if spec.kind == "test_based" else "reliability diagram"
    c.text(width / 2, height - 8, f"{title} (n={spec.n})", size=10)

    body = "\n".join(c.parts)
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{width}" height="{height}" viewBox="0 0 {width} {height}">\n'
        f"{body}\n</svg>\n"
    )
