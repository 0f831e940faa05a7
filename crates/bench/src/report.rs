//! Console + CSV reporting.

use std::io::Write;
use std::path::PathBuf;

/// Writes experiment rows to stdout and mirrors them to
/// `target/experiments/<name>.csv`.
pub struct Report {
    file: Option<std::fs::File>,
}

impl Report {
    pub fn new(name: &str, header: &str) -> Self {
        let dir = PathBuf::from("target/experiments");
        let file = std::fs::create_dir_all(&dir)
            .and_then(|_| std::fs::File::create(dir.join(format!("{name}.csv"))))
            .ok();
        let mut r = Self { file };
        if let Some(f) = r.file.as_mut() {
            let _ = writeln!(f, "{header}");
        }
        r
    }

    /// Logs a CSV row (comma-separated, matching the header).
    pub fn row(&mut self, csv: &str) {
        if let Some(f) = self.file.as_mut() {
            let _ = writeln!(f, "{csv}");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_csv_file() {
        let mut r = Report::new("unit_test_report", "a,b");
        r.row("1,2");
        r.row("3,4");
        drop(r);
        let content = std::fs::read_to_string("target/experiments/unit_test_report.csv").unwrap();
        assert_eq!(content, "a,b\n1,2\n3,4\n");
    }
}
