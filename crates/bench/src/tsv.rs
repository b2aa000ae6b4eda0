//! TSV output: every experiment binary prints its series to stdout and
//! mirrors them into `results/<id>.tsv`.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::PathBuf;

/// A TSV sink writing simultaneously to stdout and `results/<id>.tsv`.
pub struct Tsv {
    file: Option<std::fs::File>,
    id: String,
    /// Column count of the registry header once [`Tsv::header`] wrote it;
    /// every later row must match.
    columns: Option<usize>,
}

impl Tsv {
    /// Opens the sink for experiment `id`.
    pub fn new(id: &str) -> Self {
        let dir = PathBuf::from("results");
        let file = std::fs::create_dir_all(&dir)
            .and_then(|_| std::fs::File::create(dir.join(format!("{id}.tsv"))))
            .ok();
        if file.is_none() {
            eprintln!("# note: could not open results/{id}.tsv; stdout only");
        }
        Self {
            file,
            id: id.to_string(),
            columns: None,
        }
    }

    /// Emits a comment line (`# ...`).
    pub fn comment(&mut self, text: &str) {
        self.emit(&format!("# {text}"));
    }

    /// Emits the header row: the columns the registry declares for this
    /// experiment (what `fig_all --list` prints), so the schema exists once.
    /// Every row after it is held to that column count.
    ///
    /// # Panics
    /// If this sink's id is not a registered plan.
    pub fn header(&mut self) {
        let plan = crate::registry::find(&self.id)
            .unwrap_or_else(|| panic!("no registered plan `{}` to take a header from", self.id));
        self.row(plan.columns);
        self.columns = Some(plan.columns.len());
    }

    /// Emits a row of tab-separated cells.
    ///
    /// # Panics
    /// If [`Tsv::header`] ran and the row's cell count differs from the
    /// registered schema's.
    pub fn row<S: AsRef<str>>(&mut self, cells: &[S]) {
        if let Some(columns) = self.columns {
            assert_eq!(
                cells.len(),
                columns,
                "plan `{}` emitted a {}-cell row under its {columns}-column registry header",
                self.id,
                cells.len()
            );
        }
        let mut line = String::new();
        for (i, c) in cells.iter().enumerate() {
            if i > 0 {
                line.push('\t');
            }
            let _ = write!(line, "{}", c.as_ref());
        }
        self.emit(&line);
    }

    /// Emits an empty line — the block separator between sweep groups.
    pub fn blank(&mut self) {
        self.emit("");
    }

    /// The experiment id.
    pub fn id(&self) -> &str {
        &self.id
    }

    fn emit(&mut self, line: &str) {
        println!("{line}");
        if let Some(f) = &mut self.file {
            let _ = writeln!(f, "{line}");
        }
    }
}

/// Formats a float with 3 decimals (the precision the figures need).
pub fn f(v: f64) -> String {
    format!("{v:.3}")
}

#[cfg(test)]
mod tests {
    #[test]
    #[should_panic(expected = "plan `ttest` emitted a 2-cell row under its 5-column")]
    fn short_row_after_the_header_panics_naming_the_plan() {
        let mut tsv = super::Tsv::new("ttest");
        tsv.header();
        tsv.row(&["1", "2"]);
    }

    #[test]
    fn float_formatting() {
        assert_eq!(super::f(1.23456), "1.235");
        assert_eq!(super::f(0.0), "0.000");
    }
}
