//! TSV output: every experiment prints its series to stdout and mirrors
//! them into `results/<id>.tsv`. A file that cannot be created or written
//! panics (`diag=tsv-write-failed`) — `fig_all` turns that into a FAIL row,
//! so a PASS never points at a stale or truncated TSV.

use std::fmt::Write as _;
use std::io::Write as _;

/// A TSV sink writing simultaneously to stdout and `results/<id>.tsv`.
pub struct Tsv {
    file: std::fs::File,
    id: String,
    /// Column count of the registry header once [`Tsv::header`] wrote it;
    /// every later row must match.
    columns: Option<usize>,
}

impl Tsv {
    /// Opens the sink for experiment `id`.
    ///
    /// # Panics
    /// If `results/<id>.tsv` cannot be created.
    pub fn new(id: &str) -> Self {
        let file = std::fs::create_dir_all("results")
            .and_then(|()| std::fs::File::create(format!("results/{id}.tsv")))
            .unwrap_or_else(|e| {
                panic!("cannot create results/{id}.tsv: {e} [diag=tsv-write-failed]")
            });
        Self::over(id, file)
    }

    /// The sink for experiment `id` mirroring into an already open `file`.
    fn over(id: &str, file: std::fs::File) -> Self {
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
        if let Err(e) = writeln!(self.file, "{line}") {
            panic!(
                "cannot write results/{}.tsv: {e} [diag=tsv-write-failed]",
                self.id
            );
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
    #[should_panic(expected = "cannot write results/ttest.tsv: ")]
    fn a_failed_write_panics_naming_the_file() {
        let full = std::fs::OpenOptions::new()
            .write(true)
            .open("/dev/full")
            .expect("/dev/full opens for writing");
        super::Tsv::over("ttest", full).comment("lost");
    }

    #[test]
    fn float_formatting() {
        assert_eq!(super::f(1.23456), "1.235");
        assert_eq!(super::f(0.0), "0.000");
    }
}
