//! Property-based tests for the geometry kernel.

use ace_geom::{
    fracture_polygon, fracture_wire, merge_boxes, union_area, Interval, IntervalMap, IntervalSet,
    Orientation, Point, Polygon, Rect, RectIndex, Transform, Wire, LAMBDA,
};
use proptest::prelude::*;

fn point() -> impl Strategy<Value = Point> {
    (-1000i64..1000, -1000i64..1000).prop_map(|(x, y)| Point::new(x, y))
}

fn orientation() -> impl Strategy<Value = Orientation> {
    prop::sample::select(Orientation::ALL.to_vec())
}

fn transform() -> impl Strategy<Value = Transform> {
    (orientation(), point()).prop_map(|(o, d)| Transform::from_orientation(o).translate(d))
}

fn rect() -> impl Strategy<Value = Rect> {
    (-500i64..500, -500i64..500, 1i64..200, 1i64..200)
        .prop_map(|(x, y, w, h)| Rect::new(x, y, x + w, y + h))
}

/// A rect for the [`RectIndex`] oracle test: mostly small boxes over
/// negative and positive coordinates, plus full-width and full-height
/// strips and zero-area rects.
fn indexed_rect() -> impl Strategy<Value = Rect> {
    prop_oneof![
        6 => (-5000i64..5000, -5000i64..5000, 1i64..300, 1i64..300)
            .prop_map(|(x, y, w, h)| Rect::new(x, y, x + w, y + h)),
        1 => (-5000i64..5000, 1i64..8).prop_map(|(y, h)| Rect::new(-5000, y, 5000, y + h)),
        1 => (-5000i64..5000, 1i64..8).prop_map(|(x, w)| Rect::new(x, -5000, x + w, 5000)),
        1 => (-5000i64..5000, -5000i64..5000, 0i64..300)
            .prop_map(|(x, y, h)| Rect::new(x, y, x, y + h)),
    ]
}

/// A query window inside the rects' hull, straddling its edge, or far
/// outside it; some windows have zero area.
fn index_window() -> impl Strategy<Value = Rect> {
    let at = |lo: i64, hi: i64, size: i64| {
        (lo..hi, lo..hi, 0..size, 0..size).prop_map(|(x, y, w, h)| Rect::new(x, y, x + w, y + h))
    };
    prop_oneof![
        3 => at(-4500, 4500, 600),
        2 => at(-6000, -4000, 3000),
        2 => at(4000, 6000, 3000),
        1 => at(50_000, 60_000, 600),
        1 => at(-60_000, -50_000, 600),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn rect_index_matches_linear_scan(
        drawn in prop::collection::vec(indexed_rect(), 0..2500),
        copies in prop::collection::vec(any::<usize>(), 0..200),
        windows in prop::collection::vec(index_window(), 1..16),
    ) {
        // Duplicates: re-add some drawn rects verbatim.
        let mut rects = drawn.clone();
        if !drawn.is_empty() {
            rects.extend(copies.iter().map(|&i| drawn[i % drawn.len()]));
        }
        let index = RectIndex::new(&rects);
        let mut hits = Vec::new();
        for window in &windows {
            index.query(window, &mut hits);
            let want: Vec<usize> = (0..rects.len())
                .filter(|&i| {
                    rects[i].intersection(window).is_some_and(|r| r.area() > 0)
                })
                .collect();
            prop_assert_eq!(&hits, &want, "query({}) diverges from the linear scan", window);
        }
    }

    #[test]
    fn transform_composition_is_application_order(
        a in transform(),
        b in transform(),
        p in point(),
    ) {
        prop_assert_eq!(a.then(b).apply_point(p), b.apply_point(a.apply_point(p)));
    }

    #[test]
    fn transform_inverse_round_trips(t in transform(), p in point(), r in rect()) {
        prop_assert_eq!(t.inverse().apply_point(t.apply_point(p)), p);
        prop_assert_eq!(t.inverse().apply_rect(&t.apply_rect(&r)), r);
        prop_assert_eq!(t.then(t.inverse()), Transform::identity());
    }

    #[test]
    fn transforms_preserve_area_and_incidence(
        t in transform(),
        a in rect(),
        b in rect(),
    ) {
        let ta = t.apply_rect(&a);
        let tb = t.apply_rect(&b);
        prop_assert_eq!(ta.area(), a.area());
        prop_assert_eq!(ta.overlaps(&tb), a.overlaps(&b));
        prop_assert_eq!(ta.connects(&tb), a.connects(&b));
        prop_assert_eq!(ta.contact_length(&tb), a.contact_length(&b));
    }

    #[test]
    fn orientation_group_is_closed_and_invertible(
        a in orientation(),
        b in orientation(),
        p in point(),
    ) {
        let c = a.then(b);
        prop_assert!(Orientation::ALL.contains(&c));
        prop_assert_eq!(c.apply(p), b.apply(a.apply(p)));
        prop_assert_eq!(a.then(a.inverse()), Orientation::R0);
    }

    #[test]
    fn rect_intersection_is_commutative_and_contained(a in rect(), b in rect()) {
        prop_assert_eq!(a.intersection(&b), b.intersection(&a));
        if let Some(i) = a.intersection(&b) {
            prop_assert!(a.contains_rect(&i));
            prop_assert!(b.contains_rect(&i));
            prop_assert!(i.area() > 0);
        }
        let hull = a.bounding_union(&b);
        prop_assert!(hull.contains_rect(&a) && hull.contains_rect(&b));
    }

    #[test]
    fn interval_set_laws(
        raw in prop::collection::vec((0i64..200, 1i64..40), 0..16)
    ) {
        let s: IntervalSet = raw
            .iter()
            .map(|&(lo, len)| Interval::new(lo, lo + len))
            .collect();
        // Normalization: spans sorted, disjoint, non-abutting.
        let spans: Vec<Interval> = s.iter().copied().collect();
        for w in spans.windows(2) {
            prop_assert!(w[0].hi < w[1].lo, "{:?}", spans);
        }
        // Identities.
        prop_assert_eq!(s.subtract(&s), IntervalSet::new());
        prop_assert_eq!(&s.union(&s), &s);
        prop_assert_eq!(&s.intersection(&s), &s);
        // Subtraction then union restores at least the original.
        let half: IntervalSet = spans.iter().step_by(2).copied().collect();
        prop_assert_eq!(&s.subtract(&half).union(&half), &s);
    }

    #[test]
    fn manhattan_wire_boxes_cover_the_path(
        width in 1i64..5,
        steps in prop::collection::vec((0i64..2, -4i64..5), 1..6),
    ) {
        // Build a manhattan path from alternating steps (λ units).
        let width = width * 2 * LAMBDA;
        let mut path = vec![Point::ORIGIN];
        let mut at = Point::ORIGIN;
        for (i, &(_, d)) in steps.iter().enumerate() {
            if d == 0 {
                continue;
            }
            if i % 2 == 0 {
                at.x += d * LAMBDA;
            } else {
                at.y += d * LAMBDA;
            }
            path.push(at);
        }
        let wire = Wire::new(width, path.clone());
        prop_assert!(wire.is_manhattan());
        let boxes = fracture_wire(&wire, LAMBDA);
        // Every path point is covered by some box.
        for p in &path {
            prop_assert!(
                boxes.iter().any(|b| b.contains_point_closed(*p)),
                "path point {p} uncovered"
            );
        }
        // Coverage is at least the pen footprint and at most the
        // swept hull.
        prop_assert!(union_area(&boxes) >= width * width);
    }

    #[test]
    fn rectilinear_polygon_fracture_matches_shoelace(
        steps in prop::collection::vec((1i64..4, 1i64..4), 1..6)
    ) {
        let mut verts = vec![Point::ORIGIN];
        let mut x = 0;
        let mut y = 0;
        for &(dx, dy) in &steps {
            x += dx * LAMBDA;
            verts.push(Point::new(x, y));
            y += dy * LAMBDA;
            verts.push(Point::new(x, y));
        }
        verts.push(Point::new(0, y));
        let poly = Polygon::new(verts);
        let boxes = fracture_polygon(&poly, LAMBDA);
        let covered: i64 = boxes.iter().map(Rect::area).sum();
        prop_assert_eq!(covered * 2, poly.signed_area_doubled().abs());
        prop_assert_eq!(union_area(&boxes), covered, "fragments overlap");
    }

    #[test]
    fn interval_map_matches_linear_oracle(
        // (kind, lo, len, val) in λ units: kind 0 inserts, 1 removes,
        // 2 queues for merge_sorted, 3 flushes the queued batch. The
        // tiny coordinate domain forces duplicate endpoints and
        // intervals touching exactly at λ boundaries.
        ops in prop::collection::vec((0u8..4, 0i64..16, 1i64..8, 0u32..4), 1..48),
        stabs in prop::collection::vec(-1i64..18, 1..8),
    ) {
        let mut map: IntervalMap<u32> = IntervalMap::new();
        let mut oracle: Vec<(Interval, u32)> = Vec::new();
        let mut batch: Vec<(Interval, u32)> = Vec::new();
        let flush = |map: &mut IntervalMap<u32>,
                         oracle: &mut Vec<(Interval, u32)>,
                         batch: &mut Vec<(Interval, u32)>| {
            batch.sort_by_key(|&(iv, _)| iv.lo);
            map.merge_sorted(batch);
            oracle.extend(batch.iter().copied());
            batch.clear();
        };
        for &(kind, lo, len, val) in &ops {
            let iv = Interval::new(lo * LAMBDA, (lo + len) * LAMBDA);
            match kind {
                0 => {
                    map.insert(iv, val);
                    oracle.push((iv, val));
                }
                1 => {
                    let removed = map.remove(iv, &val);
                    let pos = oracle.iter().position(|&(o, v)| o == iv && v == val);
                    prop_assert_eq!(removed, pos.is_some());
                    if let Some(p) = pos {
                        oracle.remove(p);
                    }
                }
                2 => batch.push((iv, val)),
                _ => flush(&mut map, &mut oracle, &mut batch),
            }
            prop_assert!(map.check_invariants());
        }
        flush(&mut map, &mut oracle, &mut batch);
        prop_assert!(map.check_invariants());

        // Contents agree as multisets, and iteration is in lo order.
        let got: Vec<_> = map.iter().map(|(iv, v)| (iv.lo, iv.hi, *v)).collect();
        for w in got.windows(2) {
            prop_assert!(w[0].0 <= w[1].0, "iter out of lo order: {:?}", got);
        }
        let mut got_sorted = got;
        let mut want: Vec<_> = oracle.iter().map(|&(iv, v)| (iv.lo, iv.hi, v)).collect();
        got_sorted.sort_unstable();
        want.sort_unstable();
        prop_assert_eq!(got_sorted, want);

        // Stab and overlap queries agree with the naive linear scan.
        for &x in &stabs {
            let x = x * LAMBDA;
            let mut got: Vec<_> = map.stab(x).map(|(iv, v)| (iv.lo, iv.hi, *v)).collect();
            let mut want: Vec<_> = oracle
                .iter()
                .filter(|&&(iv, _)| iv.lo <= x && x < iv.hi)
                .map(|&(iv, v)| (iv.lo, iv.hi, v))
                .collect();
            got.sort_unstable();
            want.sort_unstable();
            prop_assert_eq!(got, want, "stab({}) diverges from oracle", x);

            let q = Interval::new(x, x + 3 * LAMBDA);
            let mut got: Vec<_> = map.overlapping(q).map(|(iv, v)| (iv.lo, iv.hi, *v)).collect();
            let mut want: Vec<_> = oracle
                .iter()
                .filter(|&&(iv, _)| iv.lo < q.hi && iv.hi > q.lo)
                .map(|&(iv, v)| (iv.lo, iv.hi, v))
                .collect();
            got.sort_unstable();
            want.sort_unstable();
            prop_assert_eq!(got, want, "overlapping({:?}) diverges from oracle", q);
        }
    }

    #[test]
    fn merge_boxes_is_canonical(boxes in prop::collection::vec(rect(), 0..16)) {
        let merged = merge_boxes(&boxes);
        // Same area, idempotent, order independent.
        prop_assert_eq!(union_area(&boxes), merged.iter().map(Rect::area).sum::<i64>());
        prop_assert_eq!(&merge_boxes(&merged), &merged);
        let mut reversed = boxes.clone();
        reversed.reverse();
        prop_assert_eq!(merge_boxes(&reversed), merged);
    }
}
