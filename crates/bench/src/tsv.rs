//! TSV output: every experiment binary prints its series to stdout and
//! mirrors them into `results/<id>.tsv`.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::PathBuf;

/// A TSV sink writing simultaneously to stdout and `results/<id>.tsv`.
pub struct Tsv {
    file: Option<std::fs::File>,
    id: String,
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
        }
    }

    /// Emits a comment line (`# ...`).
    pub fn comment(&mut self, text: &str) {
        self.emit(&format!("# {text}"));
    }

    /// Emits the header row: the columns the registry declares for this
    /// experiment (what `fig_all --list` prints), so the schema exists once.
    ///
    /// # Panics
    /// If this sink's id is not a registered plan.
    pub fn header(&mut self) {
        let plan = crate::registry::find(&self.id)
            .unwrap_or_else(|| panic!("no registered plan `{}` to take a header from", self.id));
        self.row(plan.columns);
    }

    /// Emits a row of tab-separated cells.
    pub fn row<S: AsRef<str>>(&mut self, cells: &[S]) {
        let mut line = String::new();
        for (i, c) in cells.iter().enumerate() {
            if i > 0 {
                line.push('\t');
            }
            let _ = write!(line, "{}", c.as_ref());
        }
        self.emit(&line);
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
    fn float_formatting() {
        assert_eq!(super::f(1.23456), "1.235");
        assert_eq!(super::f(0.0), "0.000");
    }
}
