//! Minimal aligned-text table printer used by every figure renderer.

/// A simple text table with a header row and aligned columns.
#[derive(Debug, Clone, Default)]
pub struct TextTable {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl TextTable {
    /// Create a table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        TextTable {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row (must have the same number of columns as the header).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "row width mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Append one row of displayable values.
    pub fn row_display<T: std::fmt::Display>(&mut self, cells: &[T]) {
        self.row(&cells.iter().map(|c| c.to_string()).collect::<Vec<_>>());
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True if the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Render the table as CSV (RFC 4180 quoting: cells containing commas,
    /// quotes or newlines are quoted, embedded quotes doubled).  This is the
    /// single CSV formatter of the experiment harness — the sweep report
    /// writer routes every `--format csv` table through it.
    pub fn to_csv(&self) -> String {
        let quote = |cell: &str| {
            if cell.contains([',', '"', '\n']) {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_string()
            }
        };
        let mut out = String::new();
        for row in std::iter::once(&self.header).chain(self.rows.iter()) {
            out.push_str(&row.iter().map(|c| quote(c)).collect::<Vec<_>>().join(","));
            out.push('\n');
        }
        out
    }

    /// Render the table with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}", w = w))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = TextTable::new(&["scheme", "tput", "delay"]);
        t.row_display(&["PBE", "55.2", "48"]);
        t.row_display(&["BBR", "54.9", "156"]);
        let s = t.render();
        assert!(s.contains("scheme"));
        assert!(s.lines().count() >= 4);
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    fn csv_quotes_only_what_needs_quoting() {
        let mut t = TextTable::new(&["scenario", "note"]);
        t.row_display(&["plain", "ok"]);
        t.row_display(&["with, comma", "say \"hi\""]);
        assert_eq!(
            t.to_csv(),
            "scenario,note\nplain,ok\n\"with, comma\",\"say \"\"hi\"\"\"\n"
        );
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn rejects_wrong_width() {
        let mut t = TextTable::new(&["a", "b"]);
        t.row_display(&["only one"]);
    }
}
