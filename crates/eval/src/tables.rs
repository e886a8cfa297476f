//! Aligned text tables and CSV output for the experiment binaries.

use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// A simple column-aligned table.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Create a table with a title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Self {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    ///
    /// # Panics
    /// Panics if the row width differs from the header width.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (w, cell) in widths.iter_mut().zip(row) {
                *w = (*w).max(cell.len());
            }
        }
        let mut out = String::new();
        let _ = writeln!(out, "== {} ==", self.title);
        let line: Vec<String> =
            self.headers.iter().zip(&widths).map(|(h, w)| format!("{h:<w$}")).collect();
        let _ = writeln!(out, "| {} |", line.join(" | "));
        let sep: Vec<String> = widths.iter().map(|w| "-".repeat(*w)).collect();
        let _ = writeln!(out, "|-{}-|", sep.join("-|-"));
        for row in &self.rows {
            let line: Vec<String> =
                row.iter().zip(&widths).map(|(c, w)| format!("{c:<w$}")).collect();
            let _ = writeln!(out, "| {} |", line.join(" | "));
        }
        out
    }

    /// Write as CSV (headers + rows; cells containing commas are quoted).
    pub fn write_csv(&self, path: &Path) -> io::Result<()> {
        let mut out = String::new();
        let quote = |c: &str| {
            if c.contains(',') || c.contains('"') {
                format!("\"{}\"", c.replace('"', "\"\""))
            } else {
                c.to_string()
            }
        };
        let _ = writeln!(
            out,
            "{}",
            self.headers.iter().map(|h| quote(h)).collect::<Vec<_>>().join(",")
        );
        for row in &self.rows {
            let _ = writeln!(out, "{}", row.iter().map(|c| quote(c)).collect::<Vec<_>>().join(","));
        }
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("demo", &["name", "value"]);
        t.row(vec!["a".into(), "1".into()]);
        t.row(vec!["long-name".into(), "2".into()]);
        let s = t.render();
        assert!(s.contains("== demo =="));
        assert!(s.contains("| name      | value |"), "got:\n{s}");
        assert!(s.contains("| long-name | 2     |"));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn width_mismatch_panics() {
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["only-one".into()]);
    }

    #[test]
    fn csv_quotes_commas() {
        let dir = std::env::temp_dir().join("acorn_table_test.csv");
        let mut t = Table::new("x", &["a", "b"]);
        t.row(vec!["v,1".into(), "plain".into()]);
        t.write_csv(&dir).unwrap();
        let s = std::fs::read_to_string(&dir).unwrap();
        assert!(s.contains("\"v,1\",plain"));
        let _ = std::fs::remove_file(&dir);
    }
}
