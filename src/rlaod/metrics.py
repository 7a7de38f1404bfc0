"""Detection quality metrics.

Covers box geometry, one-to-one greedy matching, the composite per-image
performance score p = (F + mean IoU) / 2 that drives the reward signal,
and a COCO-style average-precision report over an image set.
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
class _ImageEval:
    """Per-image quantities shared by every threshold and stratum."""

    det_order: list[int]  # detection indices by descending score
    scores: np.ndarray
    det_areas: np.ndarray
    det_cats: list[int]
    gt_areas: np.ndarray
    gt_cats: list[int]
    ious: np.ndarray  # (n_det, n_gt)


def _prepare_image(dets: Sequence[Detection], gts: Sequence[GroundTruthBox]) -> _ImageEval:
    mat = np.zeros((len(dets), len(gts)))
    for i, d in enumerate(dets):
        for j, g in enumerate(gts):
            mat[i, j] = iou(d.box, g.box)
    return _ImageEval(
        det_order=sorted(range(len(dets)), key=lambda i: (-dets[i].score, i)),
        scores=np.array([d.score for d in dets]),
        det_areas=np.array([d.box.area for d in dets]),
        det_cats=[d.category for d in dets],
        gt_areas=np.array([g.box.area for g in gts]),
        gt_cats=[g.category for g in gts],
        ious=mat,
    )


def _match_for_ap(img: _ImageEval, gt_ignored: np.ndarray, threshold: float) -> list[tuple[int, int]]:
    """Greedy AP matching with ignore semantics.

    Returns (detection index, status) with status 1 = true positive and
    0 = false positive; detections absorbed by ignored truths are dropped.
    Truths are scanned valid-first so an ignored truth never displaces an
    achievable valid match, though a higher-IoU ignored truth may still
    absorb a detection that has no valid match.
    """
    n_gt = len(img.gt_cats)
    gt_order = sorted(range(n_gt), key=lambda j: (bool(gt_ignored[j]), j))
    taken = [False] * n_gt
    out = []
    for di in img.det_order:
        best_j, best_iou = -1, threshold
        for gj in gt_order:
            if taken[gj] or img.gt_cats[gj] != img.det_cats[di]:
                continue
            if best_j >= 0 and not gt_ignored[best_j] and gt_ignored[gj]:
                break  # a valid match holds; the rest are ignored truths
            v = img.ious[di, gj]
            if v >= best_iou:
                best_iou = v
                best_j = gj
        if best_j < 0:
            out.append((di, 0))
        elif gt_ignored[best_j]:
            taken[best_j] = True
        else:
            taken[best_j] = True
            out.append((di, 1))
    return out


def _ap_from_scored(scored: list[tuple[float, int]], n_gt: int) -> float:
    """101-point interpolated AP from (score, is_tp) entries.

    Equal scores are consumed as one operating point, so the result does
    not depend on how ties happened to be ordered across images.
    """
    if n_gt == 0:
        return 0.0
    if not scored:
        return 0.0
    scores = np.array([s for s, _ in scored])
    flags = np.array([t for _, t in scored], dtype=np.float64)
    order = np.argsort(-scores, kind="stable")
    scores, flags = scores[order], flags[order]

    recalls, precisions = [], []
    tp = fp = 0.0
    i = 0
    while i < len(scores):
        j = i
        while j < len(scores) and scores[j] == scores[i]:
            j += 1
        tp += flags[i:j].sum()
        fp += (j - i) - flags[i:j].sum()
        recalls.append(tp / n_gt)
        precisions.append(tp / (tp + fp))
        i = j

    recalls = np.array(recalls)
    precisions = np.array(precisions)
    # Precision envelope: best precision achievable at recall >= r.
    envelope = np.maximum.accumulate(precisions[::-1])[::-1]
    idx = np.searchsorted(recalls, RECALL_GRID, side="left")
    interp = np.where(idx < len(recalls), envelope[np.minimum(idx, len(recalls) - 1)], 0.0)
    return float(interp.mean())


def evaluate_ap(
    detections_per_image: Sequence[Sequence[Detection]],
    truths_per_image: Sequence[Sequence[GroundTruthBox]],
) -> ApReport:
    """COCO-style AP over an image set.

    AP averages the 10 IoU thresholds 0.50:0.05:0.95 with 101-point
    interpolated precision; size strata ignore (rather than penalize)
    boxes outside their area range, mirroring the COCO protocol.
    """
    if len(detections_per_image) != len(truths_per_image):
        raise ValueError("detection and truth lists must cover the same images")

    n_gt_total = sum(len(g) for g in truths_per_image)
    if n_gt_total == 0:
        return ApReport(None, None, None, None, None, None)

    images = [
        _prepare_image(dets, gts)
        for dets, gts in zip(detections_per_image, truths_per_image)
    ]

    per_stratum: dict[str, float | None] = {}
    ap_at: dict[float, float] = {}
    for name, (lo, hi) in _STRATA.items():
        ignored = [~((lo <= img.gt_areas) & (img.gt_areas < hi)) for img in images]
        n_gt = int(sum((~ig).sum() for ig in ignored))
        if n_gt == 0:
            per_stratum[name] = None
            continue
        ap_values = []
        for t in IOU_THRESHOLDS:
            scored: list[tuple[float, int]] = []
            for img, ig in zip(images, ignored):
                for di, status in _match_for_ap(img, ig, float(t)):
                    if status == 0 and name != "all":
                        # Unmatched detections outside the stratum's area
                        # range are ignored as well, per COCO.
                        if not lo <= img.det_areas[di] < hi:
                            continue
                    scored.append((float(img.scores[di]), status))
            ap_t = _ap_from_scored(scored, n_gt)
            ap_values.append(ap_t)
            if name == "all":
                ap_at[float(t)] = ap_t
        per_stratum[name] = float(np.mean(ap_values))

    return ApReport(
        ap=per_stratum["all"],
        ap50=ap_at.get(0.5),
        ap75=ap_at.get(0.75),
        ap_small=per_stratum["small"],
        ap_medium=per_stratum["medium"],
        ap_large=per_stratum["large"],
    )
