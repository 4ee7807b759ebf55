//! What an experiment produces — tables, figure panels, paper-vs-ours
//! comparisons and named shape checks — and its plain-text rendering.
//! [`crate::repro::to_json`] writes the same values as `REPRO.json`;
//! `gates::gate_repro` is the one judge of both.

/// One curve of a figure: labelled `(x, y)` points.
#[derive(Debug, Clone)]
pub struct Series {
    /// Curve label (e.g. a platform abbreviation).
    pub label: String,
    /// The points.
    pub points: Vec<(f64, f64)>,
}

impl Series {
    /// Construct from a label and points.
    pub fn new(label: impl Into<String>, points: Vec<(f64, f64)>) -> Self {
        let label = label.into();
        Self { label, points }
    }

    /// The y value at `x`, if the curve has that point.
    pub fn at(&self, x: f64) -> Option<f64> {
        self.points.iter().find(|p| p.0 == x).map(|p| p.1)
    }
}

/// One table cell. A number keeps full precision in the record; the count
/// beside it is how many decimals the text rendering prints.
#[derive(Debug, Clone)]
pub enum Cell {
    /// A label.
    Text(String),
    /// A count.
    Int(u64),
    /// A measurement and its printed decimals.
    Num(f64, usize),
}

impl From<&str> for Cell {
    fn from(s: &str) -> Self {
        Cell::Text(s.to_string())
    }
}

impl From<usize> for Cell {
    fn from(n: usize) -> Self {
        Cell::Int(n as u64)
    }
}

impl From<(f64, usize)> for Cell {
    fn from((v, decimals): (f64, usize)) -> Self {
        Cell::Num(v, decimals)
    }
}

impl std::fmt::Display for Cell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Cell::Text(s) => f.write_str(s),
            Cell::Int(n) => write!(f, "{n}"),
            Cell::Num(v, decimals) => write!(f, "{v:.decimals$}"),
        }
    }
}

/// A table row from anything convertible to a [`Cell`]: `&str`, `usize`,
/// or `(value, printed decimals)`.
#[macro_export]
macro_rules! row {
    ($($cell:expr),* $(,)?) => { vec![$($crate::report::Cell::from($cell)),*] };
}

/// A table or a figure panel.
#[derive(Debug, Clone)]
pub enum Block {
    /// A titled table; every row is as long as the header.
    Table {
        /// Title.
        title: String,
        /// Column names.
        header: Vec<String>,
        /// Rows.
        rows: Vec<Vec<Cell>>,
    },
    /// A titled figure panel: curves over a shared x axis.
    Figure {
        /// Title.
        title: String,
        /// x-axis label.
        x: &'static str,
        /// y-axis label.
        y: &'static str,
        /// The curves.
        series: Vec<Series>,
    },
}

/// How far `ours` may sit from `paper` before `gate_repro` fails.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Tolerance {
    /// Recorded, not gated: an emergent, workload-level number.
    None,
    /// `|ours - paper| / |paper|` at most this.
    Rel(f64),
    /// `|ours - paper|` at most this.
    Abs(f64),
}

/// One number the paper states, beside ours.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// What is compared.
    pub what: String,
    /// The paper's value.
    pub paper: f64,
    /// The reproduction's value.
    pub ours: f64,
    /// The gated distance, if any.
    pub tolerance: Tolerance,
}

impl Comparison {
    /// Signed relative error `(ours - paper) / |paper|`.
    pub fn rel_err(&self) -> f64 {
        (self.ours - self.paper) / self.paper.abs()
    }
}

/// A named qualitative claim and whether the data supports it.
#[derive(Debug, Clone)]
pub struct Check {
    /// The claim, in the paper's words where it has them.
    pub name: String,
    /// Whether it holds on this run.
    pub holds: bool,
    /// The evidence: what was compared, or the cases that fail.
    pub detail: String,
}

/// Everything one experiment returns.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Tables and figure panels, in print order.
    pub blocks: Vec<Block>,
    /// Paper-vs-ours numbers.
    pub comparisons: Vec<Comparison>,
    /// Shape checks.
    pub checks: Vec<Check>,
}

impl Outcome {
    /// Append a table; `header` names the columns, separated by `|`.
    pub fn table(&mut self, title: impl Into<String>, header: &str, rows: Vec<Vec<Cell>>) {
        let (title, header) = (title.into(), header.split('|').map(String::from).collect());
        self.blocks.push(Block::Table {
            title,
            header,
            rows,
        });
    }

    /// Append a figure panel.
    pub fn figure(&mut self, title: String, x: &'static str, y: &'static str, series: Vec<Series>) {
        self.blocks.push(Block::Figure {
            title,
            x,
            y,
            series,
        });
    }

    /// Record a paper-vs-ours number.
    pub fn compare(&mut self, what: String, paper: f64, ours: f64, tolerance: Tolerance) {
        self.comparisons.push(Comparison {
            what,
            paper,
            ours,
            tolerance,
        });
    }

    /// Record a claim about every labelled case. It holds when all cases
    /// do — and there is one: a claim about nothing is not evidence. The
    /// detail is the single case's label, the case count, or the failures.
    pub fn check(&mut self, name: &str, cases: impl IntoIterator<Item = (String, bool)>) {
        let cases: Vec<(String, bool)> = cases.into_iter().collect();
        let failing: Vec<&str> = cases
            .iter()
            .filter(|c| !c.1)
            .map(|c| c.0.as_str())
            .collect();
        let detail = match (&cases[..], &failing[..]) {
            ([only], _) => only.0.clone(),
            (_, []) => format!("all {} cases", cases.len()),
            _ => format!("fails at {}", failing.join("; ")),
        };
        let holds = failing.is_empty() && !cases.is_empty();
        self.checks.push(Check {
            name: name.to_string(),
            holds,
            detail,
        });
    }

    /// Record a claim about one fact, with the numbers behind it.
    pub fn check_one(&mut self, name: &str, evidence: String, holds: bool) {
        self.check(name, [(evidence, holds)]);
    }

    /// Print the blocks, then the comparisons as a table, then the checks.
    pub fn print(&self) {
        self.blocks.iter().for_each(print_block);
        if !self.comparisons.is_empty() {
            let row = |c: &Comparison| {
                let tolerance = match c.tolerance {
                    Tolerance::None => "-".to_string(),
                    Tolerance::Rel(bound) => format!("{:.0}%", 100.0 * bound),
                    Tolerance::Abs(bound) => format!("±{bound}"),
                };
                let rel = 100.0 * c.rel_err();
                row![
                    c.what.as_str(),
                    (c.paper, 4),
                    (c.ours, 4),
                    (rel, 2),
                    tolerance.as_str()
                ]
            };
            print_block(&Block::Table {
                title: "paper vs ours".to_string(),
                header: ["what", "paper", "ours", "rel err %", "tolerance"]
                    .map(String::from)
                    .to_vec(),
                rows: self.comparisons.iter().map(row).collect(),
            });
        }
        println!();
        for c in &self.checks {
            let mark = if c.holds { "ok" } else { "FAILS" };
            println!("[{mark}] {} — {}", c.name, c.detail);
        }
    }
}

/// Format an x coordinate without losing information: `{x:.0}` would
/// print 16.25 and 16.75 both as "16". Shortest round-trip formatting,
/// scientific only when that would overflow the 12-wide column.
fn fmt_x(x: f64) -> String {
    let s = format!("{x}");
    if s.len() <= 12 {
        s
    } else {
        format!("{x:.4e}")
    }
}

/// Print a table with columns right-aligned to their widest cell, or a
/// figure as one x column and one column per curve (`-` where a curve has
/// no point).
fn print_block(block: &Block) {
    match block {
        Block::Table {
            title,
            header,
            rows,
        } => {
            println!("\n=== {title} ===");
            let rows: Vec<Vec<String>> = rows
                .iter()
                .map(|row| row.iter().map(Cell::to_string).collect())
                .collect();
            let mut widths: Vec<usize> = header.iter().map(|h| h.chars().count()).collect();
            for row in &rows {
                for (width, cell) in widths.iter_mut().zip(row) {
                    *width = (*width).max(cell.chars().count());
                }
            }
            let rule: Vec<String> = widths.iter().map(|&w| "-".repeat(w)).collect();
            for row in [header, &rule].into_iter().chain(&rows) {
                for (cell, &w) in row.iter().zip(&widths) {
                    print!("{cell:>w$}  ");
                }
                println!();
            }
        }
        Block::Figure {
            title,
            x,
            y,
            series,
        } => {
            println!("\n=== {title} ===\n({y} vs {x})");
            let mut xs: Vec<f64> = series.iter().flat_map(|s| &s.points).map(|p| p.0).collect();
            xs.sort_by(f64::total_cmp);
            xs.dedup();
            print!("{x:>12}");
            series.iter().for_each(|s| print!("{:>18}", s.label));
            println!();
            for x in xs {
                print!("{:>12}", fmt_x(x));
                for s in series {
                    match s.at(x) {
                        Some(y) => print!("{y:>18.3}"),
                        None => print!("{:>18}", "-"),
                    }
                }
                println!();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fractional_x_values_stay_distinct() {
        assert_eq!(fmt_x(16.25), "16.25");
        assert_eq!(fmt_x(16.75), "16.75");
        // Whole values keep their compact integer rendering.
        assert_eq!(fmt_x(16.0), "16");
        assert_eq!(fmt_x(1048576.0), "1048576");
        // Too wide for the column: scientific rather than misaligned.
        assert_eq!(fmt_x(0.3333333333333333), "3.3333e-1");
    }

    #[test]
    fn a_check_names_its_failing_cases_and_rejects_an_empty_claim() {
        let mut o = Outcome::default();
        let case = |label: &str, ok| (label.to_string(), ok);
        o.check("ok", [case("a", true), case("b", true)]);
        o.check(
            "bad",
            [case("a", true), case("b @ 72", false), case("c", false)],
        );
        o.check("single", [case("2.03 vs 23.83 µs", true)]);
        o.check("vacuous", []);
        let summary: Vec<(bool, &str)> =
            o.checks.iter().map(|c| (c.holds, &c.detail[..])).collect();
        let expected = [
            (true, "all 2 cases"),
            (false, "fails at b @ 72; c"),
            (true, "2.03 vs 23.83 µs"),
            (false, "all 0 cases"),
        ];
        assert_eq!(summary, expected);
    }

    #[test]
    fn printing_handles_ragged_curves_fractional_x_and_every_cell_kind() {
        let mut o = Outcome::default();
        let a = Series::new("a", vec![(0.5, 1.0), (1.5, 2.0), (2.25, 3.0)]);
        o.figure(
            "f".into(),
            "MiB",
            "GB/s",
            vec![a, Series::new("b", vec![(1.5, 4.0)])],
        );
        o.table(
            "t",
            "col1|µs",
            vec![row!["x", (1.25, 1)], row![7usize, "yyyy"]],
        );
        o.compare("r".into(), -1.25, -1.0, Tolerance::Abs(0.5));
        assert!((o.comparisons[0].rel_err() - 0.2).abs() < 1e-12);
        o.check("c", [("because".to_string(), true)]);
        o.print();
    }
}
