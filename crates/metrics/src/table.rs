//! Plain-text table rendering for the experiment harness.

use std::fmt;

/// A simple aligned text table; each experiment prints one per paper
/// table/figure.
///
/// # Examples
///
/// ```
/// use asm_metrics::Table;
/// let mut t = Table::new(vec!["model".into(), "error".into()]);
/// t.row(vec!["ASM".into(), "9.9%".into()]);
/// t.row(vec!["FST".into(), "29.4%".into()]);
/// let s = t.to_string();
/// assert!(s.contains("ASM"));
/// assert!(s.lines().count() >= 4);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Table {
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given column headers.
    #[must_use]
    pub fn new(headers: Vec<String>) -> Self {
        Table {
            headers,
            rows: Vec::new(),
        }
    }

    /// Appends a row (padded or truncated to the header width).
    pub fn row(&mut self, mut cells: Vec<String>) {
        cells.resize(self.headers.len(), String::new());
        self.rows.push(cells);
    }

    /// Renders the table as RFC-4180-style CSV (fields containing commas,
    /// quotes or newlines are quoted; quotes are doubled).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let escape = |cell: &str| -> String {
            if cell.contains([',', '"', '\n']) {
                format!("\"{}\"", cell.replace('"', "\"\""))
            } else {
                cell.to_owned()
            }
        };
        let mut out = String::new();
        let line = |row: &[String]| -> String {
            row.iter().map(|c| escape(c)).collect::<Vec<_>>().join(",")
        };
        out.push_str(&line(&self.headers));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&line(row));
            out.push('\n');
        }
        out
    }

    fn widths(&self) -> Vec<usize> {
        let mut w: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                if c.len() > w[i] {
                    w[i] = c.len();
                }
            }
        }
        w
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let w = self.widths();
        let line = |f: &mut fmt::Formatter<'_>, cells: &[String]| -> fmt::Result {
            write!(f, "|")?;
            for (i, c) in cells.iter().enumerate() {
                write!(f, " {c:<width$} |", width = w[i])?;
            }
            writeln!(f)
        };
        line(f, &self.headers)?;
        write!(f, "|")?;
        for width in &w {
            write!(f, "{}|", "-".repeat(width + 2))?;
        }
        writeln!(f)?;
        for row in &self.rows {
            line(f, row)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned_columns() {
        let mut t = Table::new(vec!["a".into(), "long_header".into()]);
        t.row(vec!["xxxxxx".into(), "1".into()]);
        let s = t.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines.len(), 3);
        assert_eq!(lines[0].len(), lines[2].len());
    }

    #[test]
    fn short_rows_are_padded() {
        let mut t = Table::new(vec!["a".into(), "b".into()]);
        t.row(vec!["only_one".into()]);
        assert_eq!(t.rows.len(), 1);
        let s = t.to_string();
        assert!(s.contains("only_one"));
    }

    #[test]
    fn empty_table_has_header_and_rule() {
        let t = Table::new(vec!["h".into()]);
        assert!(t.rows.is_empty());
        assert_eq!(t.to_string().lines().count(), 2);
    }
}
