import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from rlaod.metrics import (
    ApReport,
    Box2D,
    Detection,
    GroundTruthBox,
    accumulate_ap,
    evaluate_ap,
    f_measure,
    iou,
    match_greedy,
    match_image,
    mean_iou,
    performance_score,
    reward,
)

# ---------------------------------------------------------------- oracles


def greedy_match_reference(dets, gts, threshold):
    """Brute-force simulation of the documented greedy matching rule."""
    order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
    taken = set()
    pairs = []
    for di in order:
        best, best_v = None, threshold
        for gj in range(len(gts)):
            if gj in taken or gts[gj].category != dets[di].category:
                continue
            v = iou(dets[di].box, gts[gj].box)
            if v >= best_v and (best is None or v > best_v):
                best, best_v = gj, v
        if best is not None:
            taken.add(best)
            pairs.append((di, best, best_v))
    unmatched_d = sorted(set(range(len(dets))) - {p[0] for p in pairs})
    unmatched_g = sorted(set(range(len(gts))) - {p[1] for p in pairs})
    return pairs, unmatched_d, unmatched_g


def ap_reference(dets_per_image, gts_per_image):
    """Direct per-threshold precision/recall construction, plain loops."""
    thresholds = [t / 100 for t in range(50, 100, 5)]
    strata = {
        "all": (0.0, float("inf")),
        "small": (0.0, 32.0**2),
        "medium": (32.0**2, 96.0**2),
        "large": (96.0**2, float("inf")),
    }
    if sum(len(g) for g in gts_per_image) == 0:
        return ApReport(None, None, None, None, None, None)

    def match_image(dets, gts, ignored, t):
        order = sorted(range(len(dets)), key=lambda i: (-dets[i].score, i))
        gt_order = sorted(range(len(gts)), key=lambda j: (ignored[j], j))
        taken = set()
        rows = []
        for di in order:
            best, best_v = -1, t
            for gj in gt_order:
                if gj in taken or gts[gj].category != dets[di].category:
                    continue
                if best >= 0 and not ignored[best] and ignored[gj]:
                    break
                v = iou(dets[di].box, gts[gj].box)
                if v >= best_v:
                    best, best_v = gj, v
            if best < 0:
                rows.append((di, 0))
            else:
                taken.add(best)
                if not ignored[best]:
                    rows.append((di, 1))
        return rows

    def ap_for(scored, n_gt):
        if n_gt == 0 or not scored:
            return 0.0
        scored = sorted(scored, key=lambda x: -x[0])
        points = []
        tp = fp = 0
        i = 0
        while i < len(scored):
            j = i
            while j < len(scored) and scored[j][0] == scored[i][0]:
                tp += scored[j][1]
                fp += 1 - scored[j][1]
                j += 1
            points.append((tp / n_gt, tp / (tp + fp)))
            i = j
        total = 0.0
        for k in range(101):
            r = k / 100
            best = 0.0
            for rec, prec in points:
                if rec >= r and prec > best:
                    best = prec
            total += best
        return total / 101

    out = {}
    ap50 = ap75 = None
    for name, (lo, hi) in strata.items():
        ignored_all = [
            [not (lo <= g.box.area < hi) for g in gts] for gts in gts_per_image
        ]
        n_gt = sum(sum(1 for x in ig if not x) for ig in ignored_all)
        if n_gt == 0:
            out[name] = None
            continue
        values = []
        for t in thresholds:
            scored = []
            for dets, gts, ig in zip(dets_per_image, gts_per_image, ignored_all):
                for di, status in match_image(dets, gts, ig, t):
                    if status == 0 and name != "all":
                        if not lo <= dets[di].box.area < hi:
                            continue
                    scored.append((dets[di].score, status))
            ap_t = ap_for(scored, n_gt)
            values.append(ap_t)
            if name == "all" and t == 0.5:
                ap50 = ap_t
            if name == "all" and t == 0.75:
                ap75 = ap_t
        out[name] = sum(values) / len(values)
    return ApReport(out["all"], ap50, ap75, out["small"], out["medium"], out["large"])


def random_instance(rng, max_boxes=6):
    def box():
        x0 = rng.uniform(0, 80)
        y0 = rng.uniform(0, 80)
        return Box2D(x0, y0, x0 + rng.uniform(2, 40), y0 + rng.uniform(2, 40))

    dets = [
        Detection(box=box(), score=float(rng.choice([0.3, 0.5, 0.7, 0.9])))
        for _ in range(rng.integers(0, max_boxes + 1))
    ]
    gts = [GroundTruthBox(box=box()) for _ in range(rng.integers(0, max_boxes + 1))]
    return dets, gts


# ----------------------------------------------------------------- tests


class TestIou:
    def test_identical(self):
        b = Box2D(1, 2, 5, 9)
        assert iou(b, b) == 1.0

    def test_disjoint(self):
        assert iou(Box2D(0, 0, 1, 1), Box2D(5, 5, 6, 6)) == 0.0

    def test_one_third(self):
        assert iou(Box2D(0, 0, 10, 10), Box2D(5, 0, 15, 10)) == pytest.approx(1 / 3)

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_symmetric_and_bounded(self, data):
        def draw_box(label):
            x0 = data.draw(st.floats(0, 50), label=label + "x")
            y0 = data.draw(st.floats(0, 50), label=label + "y")
            w = data.draw(st.floats(0.1, 30), label=label + "w")
            h = data.draw(st.floats(0.1, 30), label=label + "h")
            return Box2D(x0, y0, x0 + w, y0 + h)

        a, b = draw_box("a"), draw_box("b")
        v = iou(a, b)
        assert 0.0 <= v <= 1.0
        assert v == iou(b, a)

    def test_degenerate_box_rejected(self):
        with pytest.raises(ValueError):
            Box2D(0, 0, 0, 5)


class TestMatchGreedy:
    def test_exact_single_pair(self):
        d = [Detection(Box2D(0, 0, 10, 10), 0.9)]
        g = [GroundTruthBox(Box2D(0, 0, 10, 10))]
        m = match_greedy(d, g, 0.5)
        assert m.pairs == [(0, 0, 1.0)]
        assert m.unmatched_detections == [] and m.unmatched_truths == []

    def test_two_dets_one_gt(self):
        g = [GroundTruthBox(Box2D(0, 0, 10, 10))]
        d = [
            Detection(Box2D(0, 0, 10, 10), 0.5),
            Detection(Box2D(1, 0, 11, 10), 0.9),
        ]
        m = match_greedy(d, g, 0.5)
        assert len(m.pairs) == 1 and m.pairs[0][0] == 1  # higher score wins
        assert m.unmatched_detections == [0]

    def test_below_threshold(self):
        d = [Detection(Box2D(0, 0, 10, 4), 0.9)]  # iou 0.4
        g = [GroundTruthBox(Box2D(0, 0, 10, 10))]
        m = match_greedy(d, g, 0.5)
        assert m.pairs == []

    def test_category_must_match(self):
        d = [Detection(Box2D(0, 0, 10, 10), 0.9, category=1)]
        g = [GroundTruthBox(Box2D(0, 0, 10, 10), category=2)]
        assert match_greedy(d, g, 0.5).pairs == []

    def test_matches_brute_force_on_200_instances(self, rng):
        for _ in range(200):
            dets, gts = random_instance(rng)
            got = match_greedy(dets, gts, 0.5)
            pairs, ud, ug = greedy_match_reference(dets, gts, 0.5)
            assert got.pairs == pairs
            assert got.unmatched_detections == ud
            assert got.unmatched_truths == ug

    def test_one_to_one(self, rng):
        for _ in range(50):
            dets, gts = random_instance(rng)
            m = match_greedy(dets, gts, 0.5)
            assert len({p[0] for p in m.pairs}) == len(m.pairs)
            assert len({p[1] for p in m.pairs}) == len(m.pairs)


class TestScores:
    def test_f_perfect(self):
        d = [Detection(Box2D(0, 0, 10, 10), 0.9)]
        g = [GroundTruthBox(Box2D(0, 0, 10, 10))]
        m = match_greedy(d, g, 0.5)
        assert f_measure(m, 1, 1) == 1.0

    def test_f_half(self):
        g = [GroundTruthBox(Box2D(0, 0, 10, 10)), GroundTruthBox(Box2D(50, 50, 60, 60))]
        d = [
            Detection(Box2D(0, 0, 10, 10), 0.9),
            Detection(Box2D(100, 100, 110, 110), 0.8),
        ]
        m = match_greedy(d, g, 0.5)
        assert f_measure(m, 2, 2) == pytest.approx(0.5)

    def test_f_no_dets(self):
        m = match_greedy([], [GroundTruthBox(Box2D(0, 0, 5, 5))], 0.5)
        assert f_measure(m, 0, 1) == 0.0

    def test_f_vacuous(self):
        m = match_greedy([], [], 0.5)
        assert f_measure(m, 0, 0) == 1.0

    def test_mean_iou_average(self):
        from rlaod.metrics import MatchResult

        m = MatchResult(pairs=[(0, 0, 0.6), (1, 1, 0.8)], unmatched_detections=[], unmatched_truths=[])
        assert mean_iou(m, 2, 2) == pytest.approx(0.7)

    def test_mean_iou_empty_cases(self):
        from rlaod.metrics import MatchResult

        none = MatchResult(pairs=[], unmatched_detections=[], unmatched_truths=[0])
        assert mean_iou(none, 0, 1) == 0.0
        vac = MatchResult(pairs=[], unmatched_detections=[], unmatched_truths=[])
        assert mean_iou(vac, 0, 0) == 1.0

    def test_performance_perfect(self):
        d = [Detection(Box2D(0, 0, 10, 10), 0.9)]
        g = [GroundTruthBox(Box2D(0, 0, 10, 10))]
        assert performance_score(d, g) == 1.0

    def test_performance_zero(self):
        assert performance_score([], [GroundTruthBox(Box2D(0, 0, 5, 5))]) == 0.0

    def test_performance_blend(self):
        # One matched det with iou 0.7 of two gts: F = 2/3, mIoU = 0.7.
        g = [GroundTruthBox(Box2D(0, 0, 10, 10)), GroundTruthBox(Box2D(50, 50, 60, 60))]
        d = [Detection(Box2D(0, 3, 10, 13), 0.9)]  # iou 7/13 with first gt
        p = performance_score(d, g)
        v = 7.0 / 13.0
        assert p == pytest.approx(0.5 * (2 / 3 + v))

    def test_spurious_detection_never_helps(self, rng):
        for _ in range(30):
            dets, gts = random_instance(rng)
            base = performance_score(dets, gts)
            spurious = Detection(Box2D(900, 900, 901, 901), 0.99)
            assert performance_score(dets + [spurious], gts) <= base + 1e-12

    def test_removing_matched_detection_never_helps(self, rng):
        for _ in range(30):
            dets, gts = random_instance(rng)
            m = match_greedy(dets, gts, 0.5)
            base = performance_score(dets, gts)
            for di, _, _ in m.pairs:
                reduced = [d for i, d in enumerate(dets) if i != di]
                assert performance_score(reduced, gts) <= base + 1e-12


class TestReward:
    def test_positive(self):
        assert reward(0.7, 0.6) == 1

    def test_zero(self):
        assert reward(0.6, 0.6) == 0

    def test_negative(self):
        assert reward(0.5, 0.9) == -1

    def test_antisymmetric(self, rng):
        for _ in range(50):
            a, b = rng.uniform(0, 1, 2)
            assert reward(a, b) == -reward(b, a)
            assert reward(a, b) in (-1, 0, 1)

    def test_range_check(self):
        with pytest.raises(ValueError):
            reward(1.5, 0.0)


class TestEvaluateAp:
    def test_perfect_single(self):
        d = [Detection(Box2D(0, 0, 50, 50), 0.9)]
        g = [GroundTruthBox(Box2D(0, 0, 50, 50))]
        rep = evaluate_ap([d], [g])
        assert rep.ap == 1.0 and rep.ap50 == 1.0 and rep.ap75 == 1.0

    def test_single_det_iou_06(self):
        # iou = 75/125 = 0.6 exactly: matched at thresholds .50/.55/.60 only.
        d = [Detection(Box2D(0, 2.5, 10, 12.5), 0.9)]
        g = [GroundTruthBox(Box2D(0, 0, 10, 10))]
        rep = evaluate_ap([d], [g])
        assert rep.ap50 == 1.0
        assert rep.ap75 == 0.0
        assert rep.ap == pytest.approx(0.3)

    def test_no_detections(self):
        rep = evaluate_ap([[]], [[GroundTruthBox(Box2D(0, 0, 5, 5))]])
        assert rep.ap == 0.0

    def test_no_ground_truth_all_none(self):
        rep = evaluate_ap([[Detection(Box2D(0, 0, 5, 5), 0.5)]], [[]])
        assert rep.ap is None and rep.ap50 is None and rep.ap_large is None

    def test_matches_reference_on_random_instances(self, rng):
        for trial in range(40):
            n_images = int(rng.integers(1, 4))
            dets, gts = [], []
            for _ in range(n_images):
                d, g = random_instance(rng, max_boxes=5)
                dets.append(d)
                gts.append(g)
            got = evaluate_ap(dets, gts)
            ref = ap_reference(dets, gts)
            for field in ("ap", "ap50", "ap75", "ap_small", "ap_medium", "ap_large"):
                gv, rv = getattr(got, field), getattr(ref, field)
                if rv is None:
                    assert gv is None, field
                else:
                    assert gv == pytest.approx(rv, abs=1e-9), f"{field} trial {trial}"

    def test_order_independent(self, rng):
        dets, gts = [], []
        for _ in range(6):
            d, g = random_instance(rng, max_boxes=4)
            dets.append(d)
            gts.append(g)
        base = evaluate_ap(dets, gts)
        perm = rng.permutation(6)
        shuffled = evaluate_ap([dets[i] for i in perm], [gts[i] for i in perm])
        for field in ("ap", "ap50", "ap75", "ap_small", "ap_medium", "ap_large"):
            a, b = getattr(base, field), getattr(shuffled, field)
            assert (a is None and b is None) or a == pytest.approx(b, abs=1e-12)

    def test_report_json_round_trip(self):
        rep = ApReport(0.5, 0.8, 0.4, None, 0.6, 0.7)
        import json

        data = json.loads(json.dumps(rep.to_dict()))
        assert data == {
            "ap": 0.5,
            "ap50": 0.8,
            "ap75": 0.4,
            "ap_s": None,
            "ap_m": 0.6,
            "ap_l": 0.7,
        }


# Boxes on an 8-pixel grid in a small field: their IoUs often equal a
# threshold or tie between truths, and their areas reach every size stratum
# and both stratum bounds (32² and 96²). About half the detections sit
# within one cell of a truth, so most thresholds see matches. Off-grid boxes
# are covered by test_matches_reference_on_random_instances.
@st.composite
def _ap_images(draw):
    def cells(lo, hi):
        return 8.0 * draw(st.integers(lo, hi))

    def box():
        x0, y0 = cells(0, 6), cells(0, 6)
        return Box2D(x0, y0, x0 + cells(1, 16), y0 + cells(1, 16))

    def near(b):
        x0, y0 = b.x_min + cells(-1, 1), b.y_min + cells(-1, 1)
        x1, y1 = b.x_max + cells(-1, 1), b.y_max + cells(-1, 1)
        return Box2D(x0, y0, max(x1, x0 + 8.0), max(y1, y0 + 8.0))

    gts = [GroundTruthBox(box(), draw(st.integers(0, 1))) for _ in range(draw(st.integers(0, 5)))]
    dets = []
    for _ in range(draw(st.integers(0, 5))):
        score = draw(st.sampled_from([0.0, 0.3, 0.5, 0.9]))
        if gts and draw(st.booleans()):
            gt = draw(st.sampled_from(gts))
            dets.append(Detection(near(gt.box), score, gt.category))
        else:
            dets.append(Detection(box(), score, draw(st.integers(0, 1))))
    return dets, gts


# An image with truths of every stratum and no detection, between two with
# detections.
_NO_DETECTIONS = (
    [],
    [
        GroundTruthBox(Box2D(0.0, 0.0, 16.0, 16.0), 0),
        GroundTruthBox(Box2D(8.0, 8.0, 72.0, 48.0), 1),
        GroundTruthBox(Box2D(0.0, 0.0, 128.0, 96.0), 0),
    ],
)
_ONE_MATCH = (
    [Detection(Box2D(0.0, 0.0, 16.0, 24.0), 0.9, 0)],
    [GroundTruthBox(Box2D(0.0, 0.0, 16.0, 16.0), 0)],
)


class TestAccumulateAp:
    @given(
        images=st.lists(_ap_images(), min_size=1, max_size=4),
        picks=st.lists(st.integers(0, 3), min_size=1, max_size=8),
    )
    @example(images=[_ONE_MATCH, _NO_DETECTIONS, ([], [])], picks=[0, 1, 2, 1])
    @settings(deadline=None)
    def test_multiset_equals_evaluate_ap_on_repeated_lists(self, images, picks):
        idx = [i % len(images) for i in picks]
        matches = [match_image(dets, gts) for dets, gts in images]
        got = accumulate_ap([matches[i] for i in idx])
        dets = [images[i][0] for i in idx]
        gts = [images[i][1] for i in idx]
        assert got == evaluate_ap(dets, gts)
        ref = ap_reference(dets, gts)
        for field in ("ap", "ap50", "ap75", "ap_small", "ap_medium", "ap_large"):
            gv, rv = getattr(got, field), getattr(ref, field)
            assert (gv is None) == (rv is None), field
            if rv is not None:
                assert gv == pytest.approx(rv, abs=1e-9), field

    def test_empty_multiset_is_all_none(self):
        assert accumulate_ap([]) == ApReport(None, None, None, None, None, None)

    def test_no_detections_counts_truths_per_stratum(self):
        m = match_image(*_NO_DETECTIONS)
        assert m.scores.shape == (0,) and m.scores.dtype.kind == "f"
        assert m.status.shape == (4, 10, 0) and m.status.dtype.name == "int8"
        assert m.n_gt.tolist() == [3, 1, 1, 1]  # all, small, medium, large
