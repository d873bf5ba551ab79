"""Overlap and topology metrics for (prediction, ground truth) mask pairs.

Reports carry four columns: Dice, centerline Dice (clDice), the beta0
number error and the beta0 matching error. Empty-mask conventions make
every metric total: two empty masks score 1 on the ratio metrics, one
empty side scores 0.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .errors import EmptyInput
from .maskio import BinaryMask, as_mask, check_same_shape
from .topology import beta0_matching_error, beta0_number_error, skeletonize

CSV_HEADER = "sample,dice,cldice,beta0_num,beta0_mat"


@dataclass(frozen=True)
class MetricReport:
    dice: float
    cl_dice: float
    beta0_num: float
    beta0_mat: float


def dice(pred: BinaryMask, gt: BinaryMask) -> float:
    """2|P n G| / (|P| + |G|); 1.0 when both masks are empty."""
    p = as_mask(pred)
    g = as_mask(gt)
    check_same_shape(p, g)
    denom = int(p.sum()) + int(g.sum())
    if denom == 0:
        return 1.0
    return 2.0 * int((p & g).sum()) / denom


def cl_dice(pred: BinaryMask, gt: BinaryMask) -> float:
    """Harmonic mean of topology precision and sensitivity.

    Tprec is the fraction of the prediction's skeleton inside the ground
    truth; Tsens is the fraction of the ground truth's skeleton inside the
    prediction. Both masks empty scores 1, exactly one empty scores 0.
    """
    p = as_mask(pred)
    g = as_mask(gt)
    check_same_shape(p, g)
    p_any = bool(p.any())
    g_any = bool(g.any())
    if not p_any and not g_any:
        return 1.0
    if not p_any or not g_any:
        return 0.0
    skel_p = skeletonize(p)
    skel_g = skeletonize(g)
    tprec = int((skel_p & g).sum()) / int(skel_p.sum())
    tsens = int((skel_g & p).sum()) / int(skel_g.sum())
    if tprec + tsens == 0.0:
        return 0.0
    return 2.0 * tprec * tsens / (tprec + tsens)


def metric_report(pred: BinaryMask, gt: BinaryMask) -> MetricReport:
    """Bundle all four metrics for one mask pair."""
    return MetricReport(
        dice=dice(pred, gt),
        cl_dice=cl_dice(pred, gt),
        beta0_num=float(beta0_number_error(pred, gt)),
        beta0_mat=float(beta0_matching_error(pred, gt)),
    )


def aggregate_reports(reports: Sequence[MetricReport]) -> MetricReport:
    """Unweighted per-field mean over per-image reports."""
    if len(reports) == 0:
        raise EmptyInput("cannot aggregate zero reports")
    return MetricReport(
        dice=float(np.mean([r.dice for r in reports])),
        cl_dice=float(np.mean([r.cl_dice for r in reports])),
        beta0_num=float(np.mean([r.beta0_num for r in reports])),
        beta0_mat=float(np.mean([r.beta0_mat for r in reports])),
    )


def _format_count(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return f"{value:.2f}"


def format_csv(named_reports: Iterable[tuple[str, MetricReport]]) -> str:
    """One CSV row per named report, in order: ratios as percentages with 2
    decimals, counts whole when whole and with 2 decimals otherwise. A mean
    row is one more named report, from ``aggregate_reports``. A name holding
    a comma, a quote, CR or LF is quoted, its quotes doubled (RFC 4180)."""
    out = io.StringIO()
    out.write(CSV_HEADER + "\n")
    for name, r in named_reports:
        if any(c in name for c in ',"\r\n'):
            name = '"' + name.replace('"', '""') + '"'
        out.write(
            f"{name},{100.0 * r.dice:.2f},{100.0 * r.cl_dice:.2f},"
            f"{_format_count(r.beta0_num)},{_format_count(r.beta0_mat)}\n"
        )
    return out.getvalue()
