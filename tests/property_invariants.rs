//! Property-based tests on cross-crate invariants (proptest).

use pipefail::core::hier::{quantize_multiplier, ObsPattern, PatternTable};
use pipefail::core::model::{RiskRanking, RiskScore};
use pipefail::eval::detection::DetectionCurve;
use pipefail::network::dataset::test_helpers::three_pipe_dataset;
use pipefail::network::geometry::{point_segment_distance, Point, Polyline};
use pipefail::network::ids::PipeId;
use pipefail::network::split::ObservationWindow;
use proptest::prelude::*;

proptest! {
    /// Rankings are always sorted descending regardless of input order.
    #[test]
    fn ranking_always_sorted(scores in proptest::collection::vec(-1e6f64..1e6, 1..50)) {
        let ranking = RiskRanking::new(
            scores
                .iter()
                .enumerate()
                .map(|(i, &s)| RiskScore { pipe: PipeId(i as u32), score: s })
                .collect(),
        );
        for w in ranking.scores().windows(2) {
            prop_assert!(w[0].score >= w[1].score);
        }
        prop_assert_eq!(ranking.len(), scores.len());
    }

    /// Detection curves are monotone in both axes and their area respects
    /// the budget bound, for any permutation of the three-pipe fixture.
    #[test]
    fn detection_curve_monotone(perm in proptest::sample::select(vec![
        [0u32,1,2],[0,2,1],[1,0,2],[1,2,0],[2,0,1],[2,1,0]
    ]), budget in 0.0f64..1.0) {
        let ds = three_pipe_dataset();
        let ranking = RiskRanking::new(
            perm.iter()
                .enumerate()
                .map(|(i, &p)| RiskScore { pipe: PipeId(p), score: (3 - i) as f64 })
                .collect(),
        );
        let curve = DetectionCurve::by_count(&ranking, &ds, ObservationWindow::new(2009, 2009));
        for w in curve.ys().windows(2) {
            prop_assert!(w[1] >= w[0]);
        }
        for w in curve.xs().windows(2) {
            prop_assert!(w[1] >= w[0]);
        }
        let area = curve.area(budget);
        prop_assert!(area >= -1e-12 && area <= budget + 1e-12);
        prop_assert!(curve.y_at(budget) >= 0.0 && curve.y_at(budget) <= 1.0);
    }

    /// Beta–Bernoulli posterior means always lie strictly inside (0, 1) and
    /// between the prior mean and the empirical rate.
    #[test]
    fn posterior_mean_bounded(
        s in 0u32..12,
        f in 0u32..12,
        q in 0.001f64..0.999,
        c in 0.01f64..1e4,
    ) {
        let pat = ObsPattern { s: s as f64, f: f as f64 };
        let m = pat.posterior_mean(q, c);
        prop_assert!(m > 0.0 && m < 1.0);
        if s + f > 0 {
            let empirical = s as f64 / (s + f) as f64;
            let (lo, hi) = if q <= empirical { (q, empirical) } else { (empirical, q) };
            prop_assert!(m >= lo - 1e-12 && m <= hi + 1e-12, "m={m} not in [{lo},{hi}]");
        }
    }

    /// Marginal log-likelihoods are finite and ≤ 0 (they are probabilities
    /// of binary sequences).
    #[test]
    fn log_marginal_is_log_probability(
        s in 0u32..12,
        f in 0u32..12,
        q in 0.001f64..0.999,
        c in 0.01f64..1e4,
    ) {
        let pat = ObsPattern { s: s as f64, f: f as f64 };
        let lm = pat.log_marginal(q, c);
        prop_assert!(lm.is_finite());
        prop_assert!(lm <= 1e-10, "log marginal {lm} must be <= 0");
    }

    /// Multiplier quantisation is idempotent, bounded, and order-preserving.
    #[test]
    fn quantization_properties(a in 1e-6f64..1e6, b in 1e-6f64..1e6) {
        let qa = quantize_multiplier(a);
        let qb = quantize_multiplier(b);
        prop_assert!((quantize_multiplier(qa) - qa).abs() < 1e-12);
        if a <= b {
            prop_assert!(qa <= qb + 1e-12);
        }
    }

    /// Pattern tables preserve unit count and pattern indices are valid;
    /// each pattern lists exactly its units, ascending.
    #[test]
    fn pattern_table_consistency(
        units in proptest::collection::vec((0u32..5, 0u32..12, 0.1f64..10.0), 1..200)
    ) {
        let table = PatternTable::build(
            units.iter().map(|&(s, f, e)| (s as f64, f as f64, e)),
        );
        prop_assert_eq!(table.units(), units.len());
        prop_assert!(table.len() <= units.len());
        for i in 0..table.units() {
            prop_assert!(table.pattern_of(i) < table.len());
        }
        for p in 0..table.len() {
            let members = table.units_of(p);
            let expected: Vec<usize> = (0..table.units()).filter(|&i| table.pattern_of(i) == p).collect();
            prop_assert_eq!(members, expected.as_slice());
        }
    }

    /// Point-to-segment distance is symmetric in the segment's endpoints and
    /// never exceeds the distance to either endpoint.
    #[test]
    fn segment_distance_properties(
        px in -1e3f64..1e3, py in -1e3f64..1e3,
        ax in -1e3f64..1e3, ay in -1e3f64..1e3,
        bx in -1e3f64..1e3, by in -1e3f64..1e3,
    ) {
        let p = Point::new(px, py);
        let a = Point::new(ax, ay);
        let b = Point::new(bx, by);
        let d1 = point_segment_distance(p, a, b);
        let d2 = point_segment_distance(p, b, a);
        prop_assert!((d1 - d2).abs() < 1e-9);
        prop_assert!(d1 <= p.distance(&a) + 1e-9);
        prop_assert!(d1 <= p.distance(&b) + 1e-9);
    }

    /// Polyline arc-length interpolation stays on the line's bounding box
    /// and point_at(0)/point_at(1) hit the endpoints.
    #[test]
    fn polyline_interpolation(
        pts in proptest::collection::vec((-1e3f64..1e3, -1e3f64..1e3), 2..8),
        t in 0.0f64..1.0,
    ) {
        let points: Vec<Point> = pts.iter().map(|&(x, y)| Point::new(x, y)).collect();
        let pl = Polyline::new(points.clone()).expect(">=2 points");
        let p = pl.point_at(t);
        let b = pl.bounds();
        prop_assert!(b.contains(Point::new(
            p.x.clamp(b.min.x, b.max.x),
            p.y.clamp(b.min.y, b.max.y)
        )));
        let start = pl.point_at(0.0);
        prop_assert!((start.x - points[0].x).abs() < 1e-9);
        let end = pl.point_at(1.0);
        let last = points.last().unwrap();
        prop_assert!((end.x - last.x).abs() < 1e-9 && (end.y - last.y).abs() < 1e-9);
    }
}
