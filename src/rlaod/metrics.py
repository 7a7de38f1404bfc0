"""Detection quality metrics.

Covers box geometry, one-to-one greedy matching, the composite per-image
performance score p = (F + mean IoU) / 2 that drives the reward signal,
and COCO-style average precision: each image is matched once into a table,
and any multiset of tables accumulates into one report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

IOU_THRESHOLDS = np.array([t / 100 for t in range(50, 100, 5)])
RECALL_GRID = np.array([r / 100 for r in range(101)])

# COCO object size strata, by ground-truth box area.
AREA_SMALL_MAX = 32.0**2
AREA_MEDIUM_MAX = 96.0**2

_STRATA = {
    "all": (0.0, np.inf),
    "small": (0.0, AREA_SMALL_MAX),
    "medium": (AREA_SMALL_MAX, AREA_MEDIUM_MAX),
    "large": (AREA_MEDIUM_MAX, np.inf),
}


@dataclass(frozen=True)
class Box2D:
    x_min: float
    y_min: float
    x_max: float
    y_max: float

    def __post_init__(self):
        if self.x_max <= self.x_min or self.y_max <= self.y_min:
            raise ValueError(
                f"degenerate box ({self.x_min}, {self.y_min}, {self.x_max}, {self.y_max})"
            )

    @property
    def area(self) -> float:
        return (self.x_max - self.x_min) * (self.y_max - self.y_min)


def finite_extent(box: Box2D) -> bool:
    """True when the box's width, height and area are finite.

    Finite corners are not enough: x_max - x_min, and the area, can still
    overflow to inf. Readers of untrusted boxes check this; Box2D itself
    does not, since the detectors build boxes on their hot path.
    """
    w, h = box.x_max - box.x_min, box.y_max - box.y_min
    return math.isfinite(w) and math.isfinite(h) and math.isfinite(w * h)


@dataclass(frozen=True)
class Detection:
    box: Box2D
    score: float
    category: int = 0

    def __post_init__(self):
        if not 0.0 <= self.score <= 1.0:
            raise ValueError(f"score {self.score} outside [0, 1]")


@dataclass(frozen=True)
class GroundTruthBox:
    box: Box2D
    category: int = 0


@dataclass(frozen=True)
class MatchResult:
    pairs: list[tuple[int, int, float]]  # (detection idx, truth idx, iou)
    unmatched_detections: list[int]
    unmatched_truths: list[int]


@dataclass(frozen=True)
class ApReport:
    """COCO-style AP summary; None marks strata with no ground truth."""

    ap: float | None
    ap50: float | None
    ap75: float | None
    ap_small: float | None
    ap_medium: float | None
    ap_large: float | None

    def to_dict(self) -> dict:
        return {
            "ap": self.ap,
            "ap50": self.ap50,
            "ap75": self.ap75,
            "ap_s": self.ap_small,
            "ap_m": self.ap_medium,
            "ap_l": self.ap_large,
        }


def iou(a: Box2D, b: Box2D) -> float:
    """Intersection over union of two boxes; 0 when disjoint."""
    ix = min(a.x_max, b.x_max) - max(a.x_min, b.x_min)
    iy = min(a.y_max, b.y_max) - max(a.y_min, b.y_min)
    if ix <= 0.0 or iy <= 0.0:
        return 0.0
    inter = ix * iy
    return inter / (a.area + b.area - inter)


def match_greedy(
    dets: Sequence[Detection],
    gts: Sequence[GroundTruthBox],
    iou_threshold: float = 0.5,
) -> MatchResult:
    """One-to-one greedy matching: detections by descending score, each taking
    the highest-IoU free ground truth of its category at or above the threshold."""
    if not 0.0 < iou_threshold < 1.0:
        raise ValueError(f"iou_threshold must lie in (0, 1), got {iou_threshold}")

    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    taken = [False] * len(gts)
    pairs = []
    unmatched_dets = []
    for di in order:
        best_j, best_iou = -1, 0.0
        for gj, gt in enumerate(gts):
            if taken[gj] or gt.category != dets[di].category:
                continue
            v = iou(dets[di].box, gt.box)
            if v >= iou_threshold and v > best_iou:
                best_j, best_iou = gj, v
        if best_j >= 0:
            taken[best_j] = True
            pairs.append((di, best_j, best_iou))
        else:
            unmatched_dets.append(di)
    unmatched_gts = [j for j, t in enumerate(taken) if not t]
    return MatchResult(pairs, sorted(unmatched_dets), unmatched_gts)


def f_measure(match: MatchResult, n_dets: int, n_gts: int) -> float:
    """F-measure of the matching. Both sets empty counts as vacuously perfect."""
    if n_dets == 0 and n_gts == 0:
        return 1.0
    tp = len(match.pairs)
    precision = tp / n_dets if n_dets else 0.0
    recall = tp / n_gts if n_gts else 0.0
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


def mean_iou(match: MatchResult, n_dets: int = -1, n_gts: int = -1) -> float:
    """Mean IoU over matched pairs; empty-vs-empty counts as perfect."""
    if match.pairs:
        return float(np.mean([p[2] for p in match.pairs]))
    if n_dets == 0 and n_gts == 0:
        return 1.0
    return 0.0


def performance_score(dets: Sequence[Detection], gts: Sequence[GroundTruthBox]) -> float:
    """p = (F + mean IoU) / 2, matched one-to-one at IoU threshold 0.5."""
    match = match_greedy(dets, gts, iou_threshold=0.5)
    f = f_measure(match, len(dets), len(gts))
    m = mean_iou(match, len(dets), len(gts))
    return 0.5 * (f + m)


def reward(p_next: float, p_prev: float) -> int:
    """Sign of the performance change: one of -1, 0, +1."""
    for name, p in (("p_next", p_next), ("p_prev", p_prev)):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"{name} {p} outside [0, 1]")
    if p_next > p_prev:
        return 1
    if p_next < p_prev:
        return -1
    return 0


@dataclass(frozen=True)
class ImageMatches:
    """One image's AP match table, made once and summed by `accumulate_ap`.

    `status[s, t, i]` is 1 when detection i is a true positive in stratum s
    at IoU threshold t, 0 a false positive and -1 not counted; strata and
    thresholds follow `_STRATA` and `IOU_THRESHOLDS`. `n_gt[s]` counts the
    truths inside stratum s.
    """

    scores: np.ndarray  # (n_det,)
    status: np.ndarray  # int8, (strata, thresholds, n_det)
    n_gt: np.ndarray  # (strata,)


def match_image(dets: Sequence[Detection], gts: Sequence[GroundTruthBox]) -> ImageMatches:
    """Greedy AP matching of one image at every stratum and IoU threshold.

    Detections go by descending score. Each takes the highest-IoU free truth
    of its category at or above the threshold, ties going to the later truth.
    Truths outside the stratum are ignored: they are scanned after the valid
    ones, so they never displace an achievable valid match, though a
    higher-IoU ignored truth may still absorb a detection that has no valid
    match. A detection so absorbed is not counted, nor, per COCO, is an
    unmatched one outside the stratum's area range.
    """
    if not dets:
        n_gt = [sum(lo <= g.box.area < hi for g in gts) for lo, hi in _STRATA.values()]
        return ImageMatches(
            scores=np.empty(0),
            status=np.empty((len(_STRATA), len(IOU_THRESHOLDS), 0), dtype=np.int8),
            n_gt=np.array(n_gt),
        )
    ious = [[iou(d.box, g.box) for g in gts] for d in dets]
    det_order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    status = np.full((len(_STRATA), len(IOU_THRESHOLDS), len(dets)), -1, dtype=np.int8)
    n_gt = []
    for s, (lo, hi) in enumerate(_STRATA.values()):
        ignored = [not lo <= g.box.area < hi for g in gts]
        n_gt.append(ignored.count(False))
        gt_order = sorted(range(len(gts)), key=lambda j: (ignored[j], j))
        for t, threshold in enumerate(IOU_THRESHOLDS.tolist()):
            taken = [False] * len(gts)
            for di in det_order:
                best_j, best_iou = -1, threshold
                for gj in gt_order:
                    if taken[gj] or gts[gj].category != dets[di].category:
                        continue
                    if best_j >= 0 and not ignored[best_j] and ignored[gj]:
                        break  # a valid match holds; the rest are ignored truths
                    if ious[di][gj] >= best_iou:
                        best_j, best_iou = gj, ious[di][gj]
                if best_j >= 0:
                    taken[best_j] = True
                    if not ignored[best_j]:
                        status[s, t, di] = 1
                elif s == 0 or lo <= dets[di].box.area < hi:  # s == 0 is "all"
                    status[s, t, di] = 0
    scores = np.array([d.score for d in dets], dtype=np.float64)
    return ImageMatches(scores=scores, status=status, n_gt=np.array(n_gt))


def _ap_from_scored(scores: np.ndarray, flags: np.ndarray, n_gt: int) -> float:
    """101-point interpolated AP from detections sorted by descending score,
    with flags 1 for a true positive and 0 for a false positive.

    Equal scores are consumed as one operating point: the counts are read at
    the end of each run of equal scores, so the result does not depend on
    how ties happened to be ordered across images.
    """
    if len(scores) == 0:
        return 0.0
    ends = np.flatnonzero(np.append(scores[1:] != scores[:-1], True))
    tp = np.cumsum(flags, dtype=np.float64)[ends]
    recalls = tp / n_gt
    precisions = tp / (ends + 1)
    # Precision envelope: best precision achievable at recall >= r.
    envelope = np.maximum.accumulate(precisions[::-1])[::-1]
    idx = np.searchsorted(recalls, RECALL_GRID, side="left")
    interp = np.where(idx < len(recalls), envelope[np.minimum(idx, len(recalls) - 1)], 0.0)
    return float(interp.mean())


def accumulate_ap(images: Sequence[ImageMatches]) -> ApReport:
    """COCO-style AP over a multiset of matched images (repeats count again).

    AP averages the 10 IoU thresholds 0.50:0.05:0.95 with 101-point
    interpolated precision; size strata ignore (rather than penalize)
    boxes outside their area range, mirroring the COCO protocol.
    """
    n_gt = sum((m.n_gt for m in images), np.zeros(len(_STRATA), dtype=np.int64))
    if not n_gt.any():
        return ApReport(None, None, None, None, None, None)
    scores = np.concatenate([m.scores for m in images])
    status = np.concatenate([m.status for m in images], axis=-1)
    order = np.argsort(-scores, kind="stable")
    scores, status = scores[order], status[..., order]
    per_threshold = [
        [_ap_from_scored(scores[st >= 0], st[st >= 0], n) for st in status[s]] if n else None
        for s, n in enumerate(n_gt.tolist())
    ]
    ap = [None if v is None else float(np.mean(v)) for v in per_threshold]
    at = per_threshold[0]  # "all"; IoU 0.50 and 0.75 are thresholds 0 and 5
    return ApReport(
        ap=ap[0],
        ap50=None if at is None else at[0],
        ap75=None if at is None else at[5],
        ap_small=ap[1],
        ap_medium=ap[2],
        ap_large=ap[3],
    )


def evaluate_ap(
    detections_per_image: Sequence[Sequence[Detection]],
    truths_per_image: Sequence[Sequence[GroundTruthBox]],
) -> ApReport:
    """COCO-style AP over an image set: each image matched once, then
    accumulated (see `accumulate_ap`)."""
    if len(detections_per_image) != len(truths_per_image):
        raise ValueError("detection and truth lists must cover the same images")
    return accumulate_ap(
        [match_image(dets, gts) for dets, gts in zip(detections_per_image, truths_per_image)]
    )
