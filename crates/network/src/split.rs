//! Temporal observation windows and the train/test protocol.
//!
//! The paper trains on failure records from 1998–2008 and tests on 2009
//! ("the first 11 years' failure records as training data and the last
//! year's failure records as testing data"). [`TrainTestSplit::paper_protocol`]
//! encodes exactly that split; everything else in the workspace takes the
//! split as a value so ablations can move the boundary.



/// An inclusive range of calendar years.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObservationWindow {
    /// First year (inclusive).
    pub start: i32,
    /// Last year (inclusive).
    pub end: i32,
}

impl ObservationWindow {
    /// Create a window; panics if `end < start`.
    pub fn new(start: i32, end: i32) -> Self {
        assert!(end >= start, "window end {end} before start {start}");
        Self { start, end }
    }

    /// Number of years covered.
    pub fn years(&self) -> u32 {
        (self.end - self.start + 1) as u32
    }

    /// True when `year` falls inside the window.
    pub fn contains(&self, year: i32) -> bool {
        year >= self.start && year <= self.end
    }

    /// Iterate the years.
    pub fn iter(&self) -> impl Iterator<Item = i32> {
        self.start..=self.end
    }
}

/// A train/test split by calendar year.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrainTestSplit {
    /// Years whose failures are visible to the models.
    pub train: ObservationWindow,
    /// Years whose failures are the prediction target.
    pub test: ObservationWindow,
}

impl TrainTestSplit {
    /// Create a split; panics if the windows overlap or test precedes train.
    pub fn new(train: ObservationWindow, test: ObservationWindow) -> Self {
        assert!(
            test.start > train.end,
            "test window must start after the training window ends"
        );
        Self { train, test }
    }

    /// The paper's protocol: train on 1998–2008, test on 2009.
    pub fn paper_protocol() -> Self {
        Self::new(ObservationWindow::new(1998, 2008), ObservationWindow::new(2009, 2009))
    }

    /// The year for which predictions are scored (= test start; the paper's
    /// test window is a single year).
    pub fn prediction_year(&self) -> i32 {
        self.test.start
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn window_basics() {
        let w = ObservationWindow::new(1998, 2009);
        assert_eq!(w.years(), 12);
        assert!(w.contains(1998));
        assert!(w.contains(2009));
        assert!(!w.contains(2010));
        assert_eq!(w.iter().count(), 12);
    }

    #[test]
    #[should_panic(expected = "window end")]
    fn rejects_inverted_window() {
        let _ = ObservationWindow::new(2009, 1998);
    }

    #[test]
    fn paper_protocol_matches_chapter() {
        let s = TrainTestSplit::paper_protocol();
        assert_eq!(s.train.years(), 11);
        assert_eq!(s.test.years(), 1);
        assert_eq!(s.prediction_year(), 2009);
    }

    #[test]
    #[should_panic(expected = "test window must start after")]
    fn rejects_overlapping_split() {
        let _ = TrainTestSplit::new(
            ObservationWindow::new(1998, 2008),
            ObservationWindow::new(2008, 2009),
        );
    }
}
