//! One schema for every experiment artifact (`BENCH_<name>.json`).
//!
//! A [`Report`] names its experiment and mode and carries tables; each
//! [`Table`] has named columns with units and rows of scalar [`Cell`]s:
//!
//! ```text
//! {"experiment": "formats", "mode": "full",
//!  "tables": [{"name": "suite",
//!              "columns": [{"name": "name", "unit": ""}, ...],
//!              "rows": [["Dense", 200, 0.0123, ...], ...]}, ...]}
//! ```
//!
//! [`Report::to_json`] is the only place JSON text is built. It prints
//! every f64 in Rust's shortest round-trip form (so a float always
//! carries a `.` or an exponent and an integer never does) and writes
//! non-finite values as `null`. [`Report::from_json`] reads back exactly
//! that text: a byte that differs from what `to_json` writes for the
//! report read is an error, as is anything else malformed. Errors are a
//! typed [`ReportError`], never a panic.
//!
//! Gates are threshold checks on a report, declared next to the
//! experiment that writes it; [`Gates`] collects the ones that fail.

use std::fmt;

/// One experiment artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct Report {
    /// Registered experiment name (see [`crate::EXPERIMENTS`]).
    pub experiment: String,
    /// `"full"` or `"tiny"`.
    pub mode: String,
    pub tables: Vec<Table>,
}

/// Named columns with units, and rows of cells (one per column).
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    pub name: String,
    pub columns: Vec<Column>,
    pub rows: Vec<Vec<Cell>>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Column {
    pub name: String,
    /// Unit of the column's values; empty for labels.
    pub unit: String,
}

/// One scalar value. A non-finite `Float` serializes as `null` and
/// reads back as NaN.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    Int(u64),
    Float(f64),
    Bool(bool),
    Text(String),
}

macro_rules! cell_from {
    ($($t:ty => $variant:ident),*) => {$(
        impl From<$t> for Cell {
            fn from(v: $t) -> Cell {
                Cell::$variant(v.into())
            }
        }
    )*};
}

cell_from!(u64 => Int, u32 => Int, f64 => Float, bool => Bool, &str => Text);

impl From<usize> for Cell {
    fn from(v: usize) -> Cell {
        Cell::Int(v as u64)
    }
}

/// A column of a table built from rows of `T`: its name, its unit, and
/// the cell it reads from each row.
pub type Col<T> = (&'static str, &'static str, fn(&T) -> Cell);

/// Read-only view of one row, addressed by column name. Missing columns
/// and mistyped cells read as NaN / `""` / `false`, so a gate on them
/// fails instead of panicking.
#[derive(Debug, Clone, Copy)]
pub struct Row<'a> {
    columns: &'a [Column],
    cells: &'a [Cell],
}

impl<'a> Row<'a> {
    fn cell(&self, column: &str) -> Option<&'a Cell> {
        let i = self.columns.iter().position(|c| c.name == column)?;
        self.cells.get(i)
    }

    /// A numeric cell as f64; NaN for anything else.
    pub fn num(&self, column: &str) -> f64 {
        match self.cell(column) {
            Some(Cell::Int(v)) => *v as f64,
            Some(Cell::Float(v)) => *v,
            _ => f64::NAN,
        }
    }

    pub fn text(&self, column: &str) -> &'a str {
        match self.cell(column) {
            Some(Cell::Text(s)) => s,
            _ => "",
        }
    }

    pub fn flag(&self, column: &str) -> bool {
        matches!(self.cell(column), Some(Cell::Bool(true)))
    }
}

impl Report {
    pub fn new(experiment: &str, tiny: bool) -> Report {
        Report {
            experiment: experiment.to_string(),
            mode: if tiny { "tiny" } else { "full" }.to_string(),
            tables: Vec::new(),
        }
    }

    /// Append a table with one row per element of `rows`.
    pub fn with_table<T>(mut self, name: &str, rows: &[T], columns: &[Col<T>]) -> Report {
        self.tables.push(Table {
            name: name.to_string(),
            columns: columns
                .iter()
                .map(|&(name, unit, _)| Column {
                    name: name.to_string(),
                    unit: unit.to_string(),
                })
                .collect(),
            rows: rows
                .iter()
                .map(|r| columns.iter().map(|(_, _, cell)| cell(r)).collect())
                .collect(),
        });
        self
    }

    /// Every row of table `name` (none if the table is missing).
    pub fn rows(&self, name: &str) -> Vec<Row<'_>> {
        let Some(t) = self.tables.iter().find(|t| t.name == name) else {
            return Vec::new();
        };
        let columns = &t.columns;
        t.rows.iter().map(|cells| Row { columns, cells }).collect()
    }

    /// The first row of table `name`, for one-row summary tables; an
    /// empty row (every cell missing) if there is none.
    pub fn row(&self, name: &str) -> Row<'_> {
        let empty = Row {
            columns: &[],
            cells: &[],
        };
        self.rows(name).first().copied().unwrap_or(empty)
    }

    pub fn cell_mut(&mut self, table: &str, row: usize, column: &str) -> Option<&mut Cell> {
        let t = self.tables.iter_mut().find(|t| t.name == table)?;
        let i = t.columns.iter().position(|c| c.name == column)?;
        t.rows.get_mut(row)?.get_mut(i)
    }

    /// The report as JSON text: one line per column list and per row.
    pub fn to_json(&self) -> String {
        fn quote(s: &str) -> String {
            let mut out = String::from('"');
            for c in s.chars() {
                match c {
                    '"' => out.push_str("\\\""),
                    '\\' => out.push_str("\\\\"),
                    c if c < ' ' => out.push_str(&format!("\\u{:04x}", c as u32)),
                    c => out.push(c),
                }
            }
            out + "\""
        }
        let cell = |c: &Cell| match c {
            Cell::Int(v) => v.to_string(),
            Cell::Float(v) if v.is_finite() => format!("{v:?}"),
            Cell::Float(_) => "null".to_string(),
            Cell::Bool(v) => v.to_string(),
            Cell::Text(s) => quote(s),
        };
        let tables: Vec<String> = self
            .tables
            .iter()
            .map(|t| {
                let columns: Vec<String> = t
                    .columns
                    .iter()
                    .map(|c| format!("{{\"name\": {}, \"unit\": {}}}", quote(&c.name), quote(&c.unit)))
                    .collect();
                let rows: Vec<String> = t
                    .rows
                    .iter()
                    .map(|r| format!("\n        [{}]", r.iter().map(cell).collect::<Vec<_>>().join(", ")))
                    .collect();
                format!(
                    "\n    {{\n      \"name\": {},\n      \"columns\": [{}],\n      \"rows\": [{}\n      ]\n    }}",
                    quote(&t.name),
                    columns.join(", "),
                    rows.join(",")
                )
            })
            .collect();
        format!(
            "{{\n  \"experiment\": {},\n  \"mode\": {},\n  \"tables\": [{}\n  ]\n}}\n",
            quote(&self.experiment),
            quote(&self.mode),
            tables.join(",")
        )
    }

    /// Parse what [`Report::to_json`] writes, and nothing else: the text
    /// must be exactly what `to_json` writes for the report it holds.
    pub fn from_json(text: &str) -> Result<Report, ReportError> {
        let mut p = Parser { s: text, i: 0 };
        p.expect("{")?;
        let experiment = p.key("experiment").and_then(|()| p.string())?;
        p.expect(",")?;
        let mode = p.key("mode").and_then(|()| p.string())?;
        p.expect(",")?;
        let tables = p.key("tables").and_then(|()| p.list(Parser::table))?;
        p.expect("}")?;
        if !text[p.i..].trim().is_empty() {
            return Err(ReportError::TrailingBytes { offset: p.i });
        }
        if crate::experiment(&experiment).is_none() {
            return Err(ReportError::UnknownExperiment(experiment));
        }
        if mode != "full" && mode != "tiny" {
            return Err(ReportError::UnknownMode(mode));
        }
        for t in &tables {
            if let Some(row) = t.rows.iter().position(|r| r.len() != t.columns.len()) {
                return Err(ReportError::RowWidth {
                    table: t.name.clone(),
                    row,
                    columns: t.columns.len(),
                    cells: t.rows[row].len(),
                });
            }
        }
        let report = Report {
            experiment,
            mode,
            tables,
        };
        let canonical = report.to_json();
        if canonical != text {
            let same = text.bytes().zip(canonical.bytes());
            let offset = same.take_while(|(a, b)| a == b).count();
            return Err(ReportError::Unexpected { offset });
        }
        Ok(report)
    }
}

/// Why a text is not a report.
#[derive(Debug, Clone, PartialEq)]
pub enum ReportError {
    /// The text ends before the report does.
    Truncated,
    /// From byte `offset` on, the text is not what `to_json` writes.
    Unexpected {
        offset: usize,
    },
    /// Bytes after the report's closing brace.
    TrailingBytes {
        offset: usize,
    },
    /// Row `row` of `table` has `cells` cells for `columns` columns.
    RowWidth {
        table: String,
        row: usize,
        columns: usize,
        cells: usize,
    },
    UnknownExperiment(String),
    UnknownMode(String),
}

impl fmt::Display for ReportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "not a report: {self:?}")
    }
}

impl std::error::Error for ReportError {}

/// Reads the report's structure, free about whitespace and spelling;
/// [`Report::from_json`] then holds the text to `to_json`'s output.
struct Parser<'a> {
    s: &'a str,
    i: usize,
}

impl Parser<'_> {
    /// Skip whitespace, then consume `token` if it comes next. The end of
    /// the text inside or before `token` is [`ReportError::Truncated`].
    fn eat(&mut self, token: &str) -> Result<bool, ReportError> {
        let rest = self.s[self.i..].trim_start();
        self.i = self.s.len() - rest.len();
        if rest.starts_with(token) {
            self.i += token.len();
            Ok(true)
        } else if token.starts_with(rest) {
            Err(ReportError::Truncated)
        } else {
            Ok(false)
        }
    }

    fn expect(&mut self, token: &str) -> Result<(), ReportError> {
        match self.eat(token)? {
            true => Ok(()),
            false => Err(ReportError::Unexpected { offset: self.i }),
        }
    }

    /// `"name":`
    fn key(&mut self, name: &str) -> Result<(), ReportError> {
        let at = self.i;
        if self.string()? != name {
            return Err(ReportError::Unexpected { offset: at });
        }
        self.expect(":")
    }

    /// `[item, item, ...]`, possibly empty.
    fn list<T>(
        &mut self,
        mut item: impl FnMut(&mut Self) -> Result<T, ReportError>,
    ) -> Result<Vec<T>, ReportError> {
        self.expect("[")?;
        let mut out = Vec::new();
        while !self.eat("]")? {
            if !out.is_empty() {
                self.expect(",")?;
            }
            out.push(item(self)?);
        }
        Ok(out)
    }

    fn table(&mut self) -> Result<Table, ReportError> {
        self.expect("{")?;
        let name = self.key("name").and_then(|()| self.string())?;
        self.expect(",")?;
        let columns = self
            .key("columns")
            .and_then(|()| self.list(Parser::column))?;
        self.expect(",")?;
        let rows = self
            .key("rows")
            .and_then(|()| self.list(|p| p.list(Parser::cell)))?;
        self.expect("}")?;
        Ok(Table {
            name,
            columns,
            rows,
        })
    }

    fn column(&mut self) -> Result<Column, ReportError> {
        self.expect("{")?;
        let name = self.key("name").and_then(|()| self.string())?;
        self.expect(",")?;
        let unit = self.key("unit").and_then(|()| self.string())?;
        self.expect("}")?;
        Ok(Column { name, unit })
    }

    fn cell(&mut self) -> Result<Cell, ReportError> {
        for (literal, cell) in [
            ("true", Cell::Bool(true)),
            ("false", Cell::Bool(false)),
            ("null", Cell::Float(f64::NAN)),
        ] {
            if self.eat(literal)? {
                return Ok(cell);
            }
        }
        if self.s[self.i..].starts_with('"') {
            return self.string().map(Cell::Text);
        }
        let rest = &self.s[self.i..];
        let len = rest
            .find(|c: char| !matches!(c, '0'..='9' | '-' | '+' | '.' | 'e' | 'E'))
            .ok_or(ReportError::Truncated)?;
        let token = &rest[..len];
        let cell = match (token.parse(), token.parse()) {
            (Ok(v), _) => Cell::Int(v),
            (_, Ok(v)) => Cell::Float(v),
            _ => return Err(ReportError::Unexpected { offset: self.i }),
        };
        self.i += len;
        Ok(cell)
    }

    fn string(&mut self) -> Result<String, ReportError> {
        self.expect("\"")?;
        let mut chars = self.s[self.i..].chars();
        let mut out = String::new();
        loop {
            match chars.next().ok_or(ReportError::Truncated)? {
                '"' => break,
                '\\' => match chars.next().ok_or(ReportError::Truncated)? {
                    'u' => {
                        let hex: String = chars.by_ref().take(4).collect();
                        if hex.chars().count() < 4 {
                            return Err(ReportError::Truncated);
                        }
                        let code = u32::from_str_radix(&hex, 16).ok();
                        out.push(code.and_then(char::from_u32).unwrap_or('\u{fffd}'));
                    }
                    c => out.push(c),
                },
                c => out.push(c),
            }
        }
        self.i = self.s.len() - chars.as_str().len();
        Ok(out)
    }
}

/// A gate on one row: its name, and the predicate the row must meet.
pub type Gate = (&'static str, fn(&Row) -> bool);

/// Collects the gates a report fails, by name.
#[derive(Debug, Default)]
pub struct Gates(Vec<String>);

impl Gates {
    pub fn check(&mut self, ok: bool, gate: impl Into<String>) {
        if !ok {
            self.0.push(gate.into());
        }
    }

    /// Check every gate on every row; a failure names the gate and, if
    /// the row has a text cell in column `label`, that cell.
    pub fn each(&mut self, rows: &[Row], label: &str, gates: &[Gate]) {
        for row in rows {
            for (name, _) in gates.iter().filter(|(_, ok)| !ok(row)) {
                self.0.push(match row.text(label) {
                    "" => name.to_string(),
                    l => format!("{name} ({l})"),
                });
            }
        }
    }

    pub fn failures(self) -> Vec<String> {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Report {
        let floats = [0.1, 1e-7, 1.5e300, -0.0, 0.30000000000000004, 5e-324, 1e16];
        let mut rows: Vec<(String, u64, f64)> = floats
            .iter()
            .enumerate()
            .map(|(i, &v)| (format!("m{i}"), u64::MAX - i as u64, v))
            .collect();
        rows.push(("q\" b\\ t\t n\n".into(), (1 << 53) + 1, f64::MAX));
        Report::new("formats", false)
            .with_table(
                "suite",
                &rows,
                &[
                    ("name", "", |r| r.0.as_str().into()),
                    ("nnz", "count", |r| r.1.into()),
                    ("ms", "ms", |r| r.2.into()),
                    ("ok", "bool", |r| (r.1 % 2 == 1).into()),
                ],
            )
            .with_table("empty", &[(); 0], &[("x", "ms", |_| 0.0.into())])
            .with_table("no_columns", &[()], &[])
    }

    #[test]
    fn round_trip_is_exact() {
        let r = sample();
        let back = Report::from_json(&r.to_json()).expect("parses");
        assert_eq!(back, r);
        for (a, b) in r.tables[0].rows.iter().zip(&back.tables[0].rows) {
            let (Cell::Float(x), Cell::Float(y)) = (&a[2], &b[2]) else {
                panic!("float cells")
            };
            assert_eq!(x.to_bits(), y.to_bits(), "floats survive bit for bit");
        }
        assert_eq!(back.tables[0].rows[7][1], Cell::Int((1 << 53) + 1));
        let bare = Report::new("phases", true);
        assert_eq!(Report::from_json(&bare.to_json()), Ok(bare));
    }

    #[test]
    fn non_finite_values_read_back_as_nan() {
        let vals = [f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        let r = Report::new("host", true).with_table("t", &vals, &[("v", "ms", |v| (*v).into())]);
        let json = r.to_json();
        assert_eq!(json.matches("null").count(), 3);
        let back = Report::from_json(&json).expect("parses");
        for row in &back.tables[0].rows {
            assert!(matches!(row[0], Cell::Float(v) if v.is_nan()));
        }
    }

    #[test]
    fn truncated_input_is_an_error() {
        let json = sample().to_json();
        for end in 0..json.trim_end().len() {
            let got = Report::from_json(&json[..end]);
            assert_eq!(got, Err(ReportError::Truncated), "cut at {end}");
        }
    }

    #[test]
    fn malformed_reports_are_typed_errors() {
        let json = sample().to_json();
        let width = ReportError::RowWidth {
            table: "suite".into(),
            row: 0,
            columns: 4,
            cells: 3,
        };
        let end = json.len() - 1;
        for (bad, want) in [
            (
                json.clone() + "x",
                ReportError::TrailingBytes { offset: end },
            ),
            (json.replacen("\"m0\", ", "", 1), width),
            (
                json.replace("\"formats\"", "\"nope\""),
                ReportError::UnknownExperiment("nope".into()),
            ),
            (
                json.replace("\"full\"", "\"huge\""),
                ReportError::UnknownMode("huge".into()),
            ),
        ] {
            assert_eq!(Report::from_json(&bad), Err(want));
        }
    }

    #[test]
    fn only_what_to_json_writes_parses() {
        let json = sample().to_json();
        for (from, to) in [
            ("\"experiment\"", "\"Experiment\""),
            ("\"count\"}", "\"count\", \"x\": 1}"),
            ("0.1", ".1"),
            ("0.1", "0.10"),
            ("0.1", "1e-1"),
            ("0.1", "-7"),
            ("0.1", "NaN"),
            ("0.1", "1e999"),
            ("18446744073709551615", "18446744073709551616"),
            ("18446744073709551615", "+18446744073709551615"),
            ("\\\\", "\\/"),
            ("\\u0009", "\\u0041"),
            ("\\u0009", "\\u000A"),
            ("\\u0009", "\t"),
            ("true", "True"),
            ("\"m1\", ", "\"m1\",, "),
            ("\"mode\": ", "\"mode\":"),
        ] {
            let bad = json.replacen(from, to, 1);
            let got = Report::from_json(&bad);
            assert!(matches!(got, Err(ReportError::Unexpected { .. })), "{bad}");
        }
    }

    #[test]
    fn missing_cells_fail_gates_instead_of_panicking() {
        let r = sample();
        let row = r.row("suite");
        assert_eq!(row.text("name"), "m0");
        assert!(row.flag("ok"));
        assert!(row.num("nope").is_nan());
        assert!(r.row("nope").num("nnz").is_nan());
        assert!(r.rows("nope").is_empty());
    }
}
