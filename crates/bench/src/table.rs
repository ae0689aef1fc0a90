//! The one table writer behind every experiment: a header plus rows of
//! cells that are already formatted, rendered as CSV, as an aligned
//! console table, or as the row objects of a `BENCH_*.json` file.
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

    /// The rows as a JSON array of objects keyed by the header, the
    /// array's closing bracket at `indent` spaces. Cells must already be
    /// JSON values (numbers, `true`/`false`, `null`, quoted strings).
    pub fn json_rows(&self, indent: usize) -> String {
        let pad = " ".repeat(indent + 2);
        let objects: Vec<String> = self
            .rows
            .iter()
            .map(|cells| {
                let fields = self
                    .header
                    .iter()
                    .map(String::as_str)
                    .zip(cells.iter().cloned());
                format!("{pad}{}", json_object(fields, indent + 2))
            })
            .collect();
        format!("[\n{}\n{}]", objects.join(",\n"), " ".repeat(indent))
    }
}

/// One JSON object of `(key, value)` fields whose values are already
/// JSON, its closing brace at `indent` spaces.
pub fn json_object<'a>(
    fields: impl IntoIterator<Item = (&'a str, String)>,
    indent: usize,
) -> String {
    let pad = " ".repeat(indent + 2);
    let lines: Vec<String> = fields
        .into_iter()
        .map(|(key, value)| format!("{pad}\"{key}\": {value}"))
        .collect();
    format!("{{\n{}\n{}}}", lines.join(",\n"), " ".repeat(indent))
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
    fn json_rows_key_every_cell_by_its_column() {
        assert_eq!(
            sample().json_rows(2),
            "[\n    {\n      \"name\": alpha,\n      \"value\": 1.50\n    },\n    {\n      \
             \"name\": b,\n      \"value\": 10\n    }\n  ]"
        );
        let top = json_object([("quick", "true".to_string()), ("rows", "[]".into())], 0);
        assert_eq!(top, "{\n  \"quick\": true,\n  \"rows\": []\n}");
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn rows_must_match_the_header() {
        Table::new(["a", "b"]).row(vec!["1".into()]);
    }
}
