//! The one report writer of the figure renderers.
//!
//! A [`ReportWriter`] renders each named table as aligned text, CSV or JSON
//! and sends it to stdout or a `--out` directory; `pbe-bench artifact`'s
//! `--format` and `--out` flags pick which.

use super::runner::SweepReport;
use crate::table::TextTable;
use std::fs;
use std::io;
use std::path::PathBuf;

/// Output format of the sweep tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OutputFormat {
    /// Aligned plain-text tables (what the paper's figures are transcribed
    /// from).
    Text,
    /// Comma-separated values, one table per file (or stdout stream).
    Csv,
    /// The full [`SweepReport`] as JSON (specs, results and timing).
    Json,
}

/// Renders named tables in the selected format, to stdout or an output
/// directory.
#[derive(Debug, Clone)]
pub struct ReportWriter {
    format: OutputFormat,
    out_dir: Option<PathBuf>,
}

impl ReportWriter {
    /// A writer for the given format and destination (creating the
    /// directory when one is given).
    pub fn new(format: OutputFormat, out_dir: Option<PathBuf>) -> io::Result<Self> {
        if let Some(dir) = &out_dir {
            fs::create_dir_all(dir)?;
        }
        Ok(ReportWriter { format, out_dir })
    }

    /// True when the caller should emit the whole [`SweepReport`] as JSON
    /// (via [`ReportWriter::sweep_json`]) instead of per-figure tables.
    pub fn wants_json(&self) -> bool {
        self.format == OutputFormat::Json
    }

    /// Emit one named table: aligned text or CSV, to stdout (prefixed by a
    /// `=== title ===` section header) or to `<out>/<name>.{txt,csv}`.
    pub fn table(&self, name: &str, title: &str, table: &TextTable) -> io::Result<()> {
        let (rendered, extension) = match self.format {
            OutputFormat::Csv => (table.to_csv(), "csv"),
            _ => (table.render(), "txt"),
        };
        self.emit(name, title, &rendered, extension)
    }

    /// Emit the whole sweep report as JSON, to stdout or `<out>/<name>.json`.
    pub fn sweep_json(&self, name: &str, report: &SweepReport) -> io::Result<()> {
        let json = serde_json::to_string(report).expect("sweep report serializes");
        self.emit(name, name, &json, "json")
    }

    /// Emit free-form notes (reference text, section banners).  Notes print
    /// to stdout only when the tables go to files (`--out`) or stdout is the
    /// aligned-text report; when stdout *is* the CSV or JSON stream, prose
    /// would corrupt it, so notes are dropped.
    pub fn note(&self, text: &str) {
        if self.format == OutputFormat::Text || self.out_dir.is_some() {
            println!("{text}");
        }
    }

    fn emit(&self, name: &str, title: &str, rendered: &str, extension: &str) -> io::Result<()> {
        // Aligned-text output keeps its section title (CSV/JSON stay pure
        // data — for files the title lives in the file name).
        let titled;
        let content = if self.format == OutputFormat::Text {
            titled = format!("=== {title} ===\n\n{rendered}");
            &titled
        } else {
            rendered
        };
        match &self.out_dir {
            Some(dir) => {
                let path = dir.join(format!("{name}.{extension}"));
                fs::write(&path, content)?;
                println!("wrote {}", path.display());
            }
            None => println!("{content}"),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tables_land_in_the_output_directory() {
        let dir = std::env::temp_dir().join("pbe_sweep_report_test");
        let _ = fs::remove_dir_all(&dir);
        let writer = ReportWriter::new(OutputFormat::Csv, Some(dir.clone())).unwrap();
        let mut t = TextTable::new(&["scheme", "tput"]);
        t.row_display(&["PBE", "55.2"]);
        writer.table("fig_test", "test table", &t).unwrap();
        let written = fs::read_to_string(dir.join("fig_test.csv")).unwrap();
        assert_eq!(written, "scheme,tput\nPBE,55.2\n");
        fs::remove_dir_all(&dir).unwrap();
    }
}
