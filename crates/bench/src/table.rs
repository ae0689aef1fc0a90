//! The one table writer behind every experiment: a header plus rows of
//! cells that are already formatted, rendered as CSV or as an aligned
//! console table.
//!
//! Cells are formatted once, where the numbers are computed, so the
//! CSV and the console show the same digits and an artifact's format
//! lives in exactly one place.

/// A header and rows of pre-formatted cells.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// An empty table with the given column names.
    pub fn new<S: Into<String>>(header: impl IntoIterator<Item = S>) -> Self {
        Table {
            header: header.into_iter().map(Into::into).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends one row.
    ///
    /// # Panics
    /// Panics if the row's width differs from the header's.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.header.len(), "row width != header width");
        self.rows.push(cells);
    }

    /// CSV: the header line, then one line per row.
    pub fn csv(&self) -> String {
        std::iter::once(&self.header)
            .chain(&self.rows)
            .map(|cells| cells.join(",") + "\n")
            .collect()
    }

    /// An aligned console table: the first column left-aligned, the
    /// others right-aligned, each as wide as its widest cell.
    pub fn render(&self) -> String {
        let widths: Vec<usize> = (0..self.header.len())
            .map(|c| {
                std::iter::once(&self.header)
                    .chain(&self.rows)
                    .map(|cells| cells[c].chars().count())
                    .max()
                    .unwrap_or(0)
            })
            .collect();
        let mut out = String::new();
        for cells in std::iter::once(&self.header).chain(&self.rows) {
            let line: Vec<String> = cells
                .iter()
                .zip(&widths)
                .enumerate()
                .map(|(c, (cell, &w))| {
                    if c == 0 {
                        format!("{cell:<w$}")
                    } else {
                        format!("{cell:>w$}")
                    }
                })
                .collect();
            out.push_str(line.join("  ").trim_end());
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new(["name", "value"]);
        t.row(vec!["alpha".into(), "1.50".into()]);
        t.row(vec!["b".into(), "10".into()]);
        t
    }

    #[test]
    fn csv_joins_header_and_rows() {
        assert_eq!(sample().csv(), "name,value\nalpha,1.50\nb,10\n");
        assert_eq!(Table::new(["x"]).csv(), "x\n");
    }

    #[test]
    fn render_aligns_every_column() {
        assert_eq!(
            sample().render(),
            "name   value\nalpha   1.50\nb         10\n"
        );
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn rows_must_match_the_header() {
        Table::new(["a", "b"]).row(vec!["1".into()]);
    }
}
