//! Plain-text table rendering and JSON artifact output.
//!
//! Every experiment binary prints an aligned table to stdout (the
//! paper-facing artifact) and writes the same rows as JSON under
//! `results/`, the machine-readable copy EXPERIMENTS.md is checked
//! against.

use std::path::{Path, PathBuf};

use crate::jsonout::{write_json_file, Json};

/// Accumulates rows and renders them aligned.
#[derive(Debug, Clone)]
pub struct TableWriter {
    /// Table caption.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Row cells (stringified).
    pub rows: Vec<Vec<String>>,
}

impl TableWriter {
    /// New empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> TableWriter {
        TableWriter {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    ///
    /// # Panics
    /// Panics if the cell count differs from the header count.
    pub fn add_row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len(), "row width mismatch");
        self.rows.push(cells);
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
        out.push_str(&format!("== {} ==\n", self.title));
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            cells
                .iter()
                .zip(widths)
                .map(|(c, w)| format!("{c:>w$}"))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.headers, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }

    /// Write the table as JSON (`title`, `headers`, then `rows` as an
    /// array of string arrays) to `results/{name}.json`. Returns the
    /// path written.
    pub fn save_json(&self, name: &str) -> PathBuf {
        let strings = |cells: &[String]| Json::Arr(cells.iter().cloned().map(Json::Str).collect());
        let rows: Vec<Json> = self.rows.iter().map(|r| strings(r)).collect();
        let json = Json::obj()
            .field("title", self.title.as_str())
            .field("headers", strings(&self.headers))
            .field("rows", rows);
        let path = results_dir().join(format!("{name}.json"));
        write_json_file(&path, &json);
        path
    }
}

/// The shared results directory (`$PREDTOP_RESULTS_DIR` or `results/`
/// relative to the working directory).
pub fn results_dir() -> PathBuf {
    std::env::var_os("PREDTOP_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| Path::new("results").to_path_buf())
}

/// Format seconds compactly (`1.23 s`, `45.6 ms`).
pub fn fmt_seconds(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.2} s")
    } else if s >= 1e-3 {
        format!("{:.2} ms", s * 1e3)
    } else {
        format!("{:.1} us", s * 1e6)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = TableWriter::new("demo", &["name", "value"]);
        t.add_row(vec!["a".into(), "1.0".into()]);
        t.add_row(vec!["long-name".into(), "2".into()]);
        let r = t.render();
        assert!(r.contains("== demo =="));
        let lines: Vec<&str> = r.lines().collect();
        // all data lines equal width
        assert_eq!(lines[1].len(), lines[3].len());
        assert_eq!(lines[3].len(), lines[4].len());
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn row_width_checked() {
        let mut t = TableWriter::new("demo", &["a", "b"]);
        t.add_row(vec!["only-one".into()]);
    }

    #[test]
    fn saved_json_has_the_committed_layout() {
        std::env::set_var(
            "PREDTOP_RESULTS_DIR",
            std::env::temp_dir().join("predtop-test-results"),
        );
        let mut t = TableWriter::new("json-demo", &["x", "y"]);
        t.add_row(vec!["42".into(), "a \"b\"".into()]);
        let p = t.save_json("unit_test_table");
        let body = std::fs::read_to_string(&p).unwrap();
        // the key order and nesting of the files under results/
        let expected =
            "{\n  \"title\": \"json-demo\",\n  \"headers\": [\n    \"x\",\n    \"y\"\n  ],\n  \
                        \"rows\": [\n    [\n      \"42\",\n      \"a \\\"b\\\"\"\n    ]\n  ]\n}\n";
        assert_eq!(body, expected);
        std::fs::remove_file(p).ok();
        std::env::remove_var("PREDTOP_RESULTS_DIR");
    }

    #[test]
    fn second_formatting() {
        assert_eq!(fmt_seconds(2.5), "2.50 s");
        assert_eq!(fmt_seconds(0.0042), "4.20 ms");
        assert_eq!(fmt_seconds(3e-5), "30.0 us");
    }
}
