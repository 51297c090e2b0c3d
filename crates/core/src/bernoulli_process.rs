//! The Bernoulli process and the sparse binary failure matrix (§18.3.1.2,
//! Fig. 18.3).
//!
//! A draw `X_j ~ BeP(H)` activates atom `i` with probability `πᵢ`; stacking
//! draws column-wise gives the binary matrix whose rows are pipes (or
//! segments) and columns are observation years. Inference never materialises
//! the matrix — it only needs row sums — but the Fig. 18.3 driver does, so a
//! compact sparse representation lives here.

/// A sparse binary matrix stored as per-column active-row lists; rows are
/// atoms (pipes/segments), columns are draws (years).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BinaryMatrix {
    rows: usize,
    columns: Vec<Vec<u32>>,
}

impl BinaryMatrix {
    /// Create an empty matrix with `rows` rows.
    pub fn new(rows: usize) -> Self {
        Self {
            rows,
            columns: Vec::new(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (draws).
    pub fn cols(&self) -> usize {
        self.columns.len()
    }

    /// Append a column given its active row indices (sorted, deduped).
    pub fn push_column(&mut self, mut active: Vec<u32>) {
        active.sort_unstable();
        active.dedup();
        active.retain(|&r| (r as usize) < self.rows);
        self.columns.push(active);
    }

    /// Entry lookup.
    pub fn get(&self, row: usize, col: usize) -> bool {
        self.columns
            .get(col)
            .is_some_and(|c| c.binary_search(&(row as u32)).is_ok())
    }

    /// Total number of ones.
    pub fn ones(&self) -> usize {
        self.columns.iter().map(Vec::len).sum()
    }

    /// Density (fraction of ones); the pipe matrices are ≪ 1%.
    pub fn density(&self) -> f64 {
        let cells = self.rows * self.cols();
        if cells == 0 {
            0.0
        } else {
            self.ones() as f64 / cells as f64
        }
    }

    /// Render an ASCII picture (`#` = 1, `·` = 0) capped to `max_rows` rows —
    /// the Fig. 18.3 illustration.
    pub fn ascii(&self, max_rows: usize) -> String {
        let mut out = String::new();
        for r in 0..self.rows.min(max_rows) {
            for c in 0..self.cols() {
                out.push(if self.get(r, c) { '#' } else { '\u{b7}' });
            }
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_lookup() {
        let mut m = BinaryMatrix::new(4);
        m.push_column(vec![0, 2]);
        m.push_column(vec![3, 3, 1]); // dup collapses
        m.push_column(vec![]);
        assert_eq!(m.rows(), 4);
        assert_eq!(m.cols(), 3);
        assert!(m.get(0, 0));
        assert!(!m.get(1, 0));
        assert!(m.get(1, 1));
        assert!(m.get(3, 1));
        assert!(!m.get(0, 2));
        assert_eq!(m.ones(), 4);
    }

    #[test]
    fn out_of_range_rows_dropped() {
        let mut m = BinaryMatrix::new(2);
        m.push_column(vec![0, 5]);
        assert_eq!(m.ones(), 1);
    }

    #[test]
    fn ascii_rendering() {
        let mut m = BinaryMatrix::new(2);
        m.push_column(vec![0]);
        m.push_column(vec![1]);
        let art = m.ascii(10);
        let lines: Vec<&str> = art.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with('#'));
        assert!(lines[1].ends_with('#'));
    }
}
