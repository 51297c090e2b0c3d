//! Planar geometry for pipe layouts.
//!
//! Utility GIS data is projected into metres; a flat 2-D plane is exact
//! enough at local-government-area scale. Pipes are polylines; the geometry
//! here supports lengths, midpoints, point-to-segment distances (for the
//! distance-to-traffic-intersection feature) and bounding boxes (for the SVG
//! map renderers).



/// A point in projected metre coordinates.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// Easting (m).
    pub x: f64,
    /// Northing (m).
    pub y: f64,
}

impl Point {
    /// Construct a point.
    pub fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// Euclidean distance to another point.
    pub fn distance(&self, other: &Point) -> f64 {
        (self.x - other.x).hypot(self.y - other.y)
    }

    /// Midpoint of the segment from `self` to `other`.
    pub fn midpoint(&self, other: &Point) -> Point {
        Point::new(0.5 * (self.x + other.x), 0.5 * (self.y + other.y))
    }
}

/// An axis-aligned bounding box.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Bounds {
    /// Lower-left corner.
    pub min: Point,
    /// Upper-right corner.
    pub max: Point,
}

impl Bounds {
    /// The empty bounds (inverted; grows on the first `expand`).
    pub fn empty() -> Self {
        Self {
            min: Point::new(f64::INFINITY, f64::INFINITY),
            max: Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
        }
    }

    /// Grow to include `p`.
    pub fn expand(&mut self, p: Point) {
        self.min.x = self.min.x.min(p.x);
        self.min.y = self.min.y.min(p.y);
        self.max.x = self.max.x.max(p.x);
        self.max.y = self.max.y.max(p.y);
    }

    /// Width (0 if empty).
    pub fn width(&self) -> f64 {
        (self.max.x - self.min.x).max(0.0)
    }

    /// Height (0 if empty).
    pub fn height(&self) -> f64 {
        (self.max.y - self.min.y).max(0.0)
    }

    /// True when no point has been added.
    pub fn is_empty(&self) -> bool {
        self.min.x > self.max.x
    }

    /// True when `p` lies inside (inclusive).
    pub fn contains(&self, p: Point) -> bool {
        p.x >= self.min.x && p.x <= self.max.x && p.y >= self.min.y && p.y <= self.max.y
    }
}

/// A polyline: an ordered sequence of at least two points.
#[derive(Debug, Clone, PartialEq)]
pub struct Polyline {
    points: Vec<Point>,
}

impl Polyline {
    /// Build from points; requires at least two.
    pub fn new(points: Vec<Point>) -> Option<Self> {
        if points.len() < 2 {
            None
        } else {
            Some(Self { points })
        }
    }

    /// A two-point line.
    pub fn line(a: Point, b: Point) -> Self {
        Self { points: vec![a, b] }
    }

    /// The vertices.
    pub fn points(&self) -> &[Point] {
        &self.points
    }

    /// First vertex.
    pub fn start(&self) -> Point {
        self.points[0]
    }

    /// Last vertex.
    pub fn end(&self) -> Point {
        *self.points.last().expect(">= 2 points")
    }

    /// Total arc length.
    pub fn length(&self) -> f64 {
        self.points
            .windows(2)
            .map(|w| w[0].distance(&w[1]))
            .sum()
    }

    /// Point at arc-length fraction `t ∈ [0, 1]` along the polyline.
    pub fn point_at(&self, t: f64) -> Point {
        let t = t.clamp(0.0, 1.0);
        let target = t * self.length();
        let mut walked = 0.0;
        for w in self.points.windows(2) {
            let seg = w[0].distance(&w[1]);
            if walked + seg >= target && seg > 0.0 {
                let f = (target - walked) / seg;
                return Point::new(
                    w[0].x + f * (w[1].x - w[0].x),
                    w[0].y + f * (w[1].y - w[0].y),
                );
            }
            walked += seg;
        }
        self.end()
    }

    /// Midpoint by arc length.
    pub fn midpoint(&self) -> Point {
        self.point_at(0.5)
    }

    /// Bounding box of the vertices.
    pub fn bounds(&self) -> Bounds {
        let mut b = Bounds::empty();
        for &p in &self.points {
            b.expand(p);
        }
        b
    }
}

/// Distance from point `p` to the closed segment `ab`.
pub fn point_segment_distance(p: Point, a: Point, b: Point) -> f64 {
    let abx = b.x - a.x;
    let aby = b.y - a.y;
    let len2 = abx * abx + aby * aby;
    if len2 == 0.0 {
        return p.distance(&a);
    }
    let t = (((p.x - a.x) * abx + (p.y - a.y) * aby) / len2).clamp(0.0, 1.0);
    let proj = Point::new(a.x + t * abx, a.y + t * aby);
    p.distance(&proj)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn point_distance() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(3.0, 4.0);
        assert!((a.distance(&b) - 5.0).abs() < 1e-12);
        let m = a.midpoint(&b);
        assert_eq!(m, Point::new(1.5, 2.0));
    }

    #[test]
    fn polyline_requires_two_points() {
        assert!(Polyline::new(vec![]).is_none());
        assert!(Polyline::new(vec![Point::new(0.0, 0.0)]).is_none());
        assert!(Polyline::new(vec![Point::new(0.0, 0.0), Point::new(1.0, 0.0)]).is_some());
    }

    #[test]
    fn length_and_point_at() {
        // L-shaped line: (0,0) → (10,0) → (10,10); length 20
        let pl = Polyline::new(vec![
            Point::new(0.0, 0.0),
            Point::new(10.0, 0.0),
            Point::new(10.0, 10.0),
        ])
        .unwrap();
        assert!((pl.length() - 20.0).abs() < 1e-12);
        assert_eq!(pl.point_at(0.0), Point::new(0.0, 0.0));
        assert_eq!(pl.point_at(1.0), Point::new(10.0, 10.0));
        // Midpoint at arc length 10 is the corner.
        assert_eq!(pl.midpoint(), Point::new(10.0, 0.0));
        // Quarter point at arc length 5.
        assert_eq!(pl.point_at(0.25), Point::new(5.0, 0.0));
    }

    #[test]
    fn segment_distance_cases() {
        let a = Point::new(0.0, 0.0);
        let b = Point::new(10.0, 0.0);
        // perpendicular foot inside the segment
        assert!((point_segment_distance(Point::new(5.0, 3.0), a, b) - 3.0).abs() < 1e-12);
        // beyond the ends: distance to the endpoint
        assert!((point_segment_distance(Point::new(-4.0, 3.0), a, b) - 5.0).abs() < 1e-12);
        assert!((point_segment_distance(Point::new(13.0, 4.0), a, b) - 5.0).abs() < 1e-12);
        // degenerate segment
        assert!((point_segment_distance(Point::new(1.0, 1.0), a, a) - 2.0_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn bounds_expand_and_contain() {
        let mut b = Bounds::empty();
        assert!(b.is_empty());
        b.expand(Point::new(1.0, 2.0));
        b.expand(Point::new(-1.0, 5.0));
        assert!(!b.is_empty());
        assert_eq!(b.width(), 2.0);
        assert_eq!(b.height(), 3.0);
        assert!(b.contains(Point::new(0.0, 3.0)));
        assert!(!b.contains(Point::new(2.0, 3.0)));
    }
}
