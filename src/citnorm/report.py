"""Scatter-plot SVG emission and ranking exports.

Scatter plots put two indicators on equal linear axes from 0 to a shared
maximum, draw a 45-degree identity line through the origin, and mark small
units (at most ``threshold`` publications with a full citation year) as red
squares and larger units as blue circles. Units with an undefined coordinate
are omitted and tallied, as are units outside [0, axis maximum]; the tallies
are recorded in a metadata comment inside the SVG so the plot stays auditable.
Rendering is pure text generation and byte-deterministic.
"""
from __future__ import annotations

import math
import re
import sys
from dataclasses import dataclass
from typing import Sequence

from .baseline import _csv_text
from .errors import ValidationError
from .indicators import INDICATOR_NAMES, UnitScore, format_value, rank_units

CANVAS = 800
MARGIN = 40
MARKER = 5
RED = "#CC0000"
BLUE = "#0033CC"
# a character outside XML 1.0's Char production, which no well-formed document holds
_NOT_XML_CHAR = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ud800-\udfff\ufffe\uffff]")
# html.escape(text, quote=False) as a table, without importing html at every start
_XML_TEXT = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;"})


@dataclass(frozen=True)
class ScatterSpec:
    x_indicator: str
    y_indicator: str
    threshold: int = 50
    axis_max: float | None = None

    def __post_init__(self) -> None:
        if self.x_indicator not in INDICATOR_NAMES or self.y_indicator not in INDICATOR_NAMES:
            raise ValidationError(
                f"indicators must be one of {INDICATOR_NAMES}: "
                f"got ({self.x_indicator}, {self.y_indicator})"
            )
        if self.threshold < 0:
            raise ValidationError("threshold must be >= 0")
        if self.axis_max is not None and not (0 < self.axis_max < math.inf):
            raise ValidationError(f"axis_max must be finite and > 0: got {self.axis_max}")


def _to_px(value: float, axis_max: float) -> float:
    return MARGIN + (value / axis_max) * (CANVAS - 2 * MARGIN)


def render_scatter(scores: Sequence[UnitScore], spec: ScatterSpec) -> str:
    """Render unit scores as an SVG scatter plot, returning the document."""
    ordered = sorted(scores, key=lambda s: s.unit_id)
    plottable = []
    undefined = 0
    for score in ordered:
        if _NOT_XML_CHAR.search(score.unit_id):
            raise ValidationError(f"unit id {score.unit_id!r} holds a character XML 1.0 forbids")
        x = getattr(score, spec.x_indicator)
        y = getattr(score, spec.y_indicator)
        if x is None or y is None:
            undefined += 1
        else:
            plottable.append((score, x, y))
    if not plottable:
        raise ValidationError("no plottable units (all selected scores undefined)")

    if spec.axis_max is not None:
        axis_max = spec.axis_max
    else:
        peak = max(max(x, y) for _, x, y in plottable)
        axis_max = min(1.05 * peak, sys.float_info.max) if peak > 0 else 1.0

    markers: list[str] = []
    clipped = 0
    for score, x, y in plottable:
        if not (0 <= x <= axis_max and 0 <= y <= axis_max):
            clipped += 1
            continue
        px = _to_px(x, axis_max)
        py = CANVAS - _to_px(y, axis_max)
        color = RED if score.n_mncs2 <= spec.threshold else BLUE
        title = f"<title>{score.unit_id.translate(_XML_TEXT)}</title>"
        if color == RED:
            markers.append(
                f'<rect x="{px - MARKER:.2f}" y="{py - MARKER:.2f}" '
                f'width="{2 * MARKER}" height="{2 * MARKER}" fill="{RED}">{title}</rect>'
            )
        else:
            markers.append(
                f'<circle cx="{px:.2f}" cy="{py:.2f}" r="{MARKER}" fill="{BLUE}">{title}</circle>'
            )

    origin = _to_px(0.0, axis_max)
    top = _to_px(axis_max, axis_max)
    half = _to_px(axis_max / 2, axis_max)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{CANVAS}" height="{CANVAS}" '
        f'viewBox="0 0 {CANVAS} {CANVAS}">',
        f"<!-- markers={len(markers)} clipped={clipped} undefined={undefined} "
        f"threshold={spec.threshold} axis_max={axis_max:.6f} "
        f"x={spec.x_indicator} y={spec.y_indicator} -->",
        f'<rect x="0" y="0" width="{CANVAS}" height="{CANVAS}" fill="#FFFFFF"/>',
        # axes
        f'<line x1="{origin}" y1="{CANVAS - origin}" x2="{top}" y2="{CANVAS - origin}" '
        'stroke="#000000" stroke-width="1"/>',
        f'<line x1="{origin}" y1="{CANVAS - origin}" x2="{origin}" y2="{CANVAS - top}" '
        'stroke="#000000" stroke-width="1"/>',
        # identity line
        f'<line x1="{origin}" y1="{CANVAS - origin}" x2="{top}" y2="{CANVAS - top}" '
        'stroke="#888888" stroke-width="1"/>',
        # tick labels at 0, mid, max
        f'<text x="{origin}" y="{CANVAS - MARGIN / 2}" font-size="14" '
        f'text-anchor="middle">0</text>',
        f'<text x="{half}" y="{CANVAS - MARGIN / 2}" font-size="14" '
        f'text-anchor="middle">{axis_max / 2:.2f}</text>',
        f'<text x="{top}" y="{CANVAS - MARGIN / 2}" font-size="14" '
        f'text-anchor="middle">{axis_max:.2f}</text>',
        f'<text x="{MARGIN / 2}" y="{CANVAS - half}" font-size="14" '
        f'text-anchor="middle">{axis_max / 2:.2f}</text>',
        f'<text x="{MARGIN / 2}" y="{CANVAS - top}" font-size="14" '
        f'text-anchor="middle">{axis_max:.2f}</text>',
        # axis labels
        f'<text x="{CANVAS / 2}" y="{CANVAS - 8}" font-size="16" '
        f'text-anchor="middle">{spec.x_indicator.translate(_XML_TEXT)}</text>',
        f'<text x="14" y="{CANVAS / 2}" font-size="16" text-anchor="middle" '
        f'transform="rotate(-90 14 {CANVAS / 2})">{spec.y_indicator.translate(_XML_TEXT)}</text>',
    ]
    lines.extend(markers)
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def render_ranking(scores: Sequence[UnitScore], by: str, top: int) -> str:
    """CSV text of the top units by one indicator (rank,unit_id,score)."""
    ranked = rank_units(scores, by, top)
    return _csv_text(["rank", "unit_id", "score"], (
        [position, score.unit_id, format_value(getattr(score, by), decimals=2)]
        for position, score in enumerate(ranked, start=1)))
