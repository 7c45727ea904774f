//! Minimal MPS reader/writer.
//!
//! The Mittelmann benchmark LPs used by the paper are distributed as MPS
//! files. This module supports the common subset needed to load such files
//! into the canonical `max cᵀx, Ax ≤ b, x ≥ 0` form:
//!
//! * Sections: `NAME`, `ROWS` (`N`, `L`, `G`, `E`), `COLUMNS`, `RHS`,
//!   `ENDATA`. `BOUNDS` other than the default `x ≥ 0` and `RANGES` are not
//!   supported and produce an error.
//! * By MPS convention the objective is *minimized*; [`read_mps`] returns
//!   the minimization sense so callers can negate if they want the canonical
//!   maximization form (see [`MpsProblem::into_max_problem`]).
//! * `G` rows (`≥`) are negated into `≤` rows; `E` rows become a pair of
//!   inequalities.

use crate::problem::LpProblem;
use qsc_linalg::SparseMatrix;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Read, Write};

/// Errors from MPS parsing.
#[derive(Debug)]
pub enum MpsError {
    /// Malformed content.
    Parse { line: usize, message: String },
    /// Feature outside the supported subset.
    Unsupported { line: usize, feature: String },
    /// IO error.
    Io(std::io::Error),
}

impl std::fmt::Display for MpsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MpsError::Parse { line, message } => {
                write!(f, "MPS parse error on line {line}: {message}")
            }
            MpsError::Unsupported { line, feature } => {
                write!(f, "unsupported MPS feature on line {line}: {feature}")
            }
            MpsError::Io(e) => write!(f, "io error: {e}"),
        }
    }
}

impl std::error::Error for MpsError {}

impl From<std::io::Error> for MpsError {
    fn from(e: std::io::Error) -> Self {
        MpsError::Io(e)
    }
}

/// Optimization sense of an MPS file.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sense {
    /// Minimize the objective (the MPS default).
    Minimize,
    /// Maximize the objective.
    Maximize,
}

/// A parsed MPS problem, kept in `A x ≤ b, x ≥ 0` form with an explicit
/// optimization sense for the objective.
#[derive(Clone, Debug)]
pub struct MpsProblem {
    /// Problem name (from the `NAME` record).
    pub name: String,
    /// Sense of the objective.
    pub sense: Sense,
    /// Constraints and objective, already in `≤` form.
    pub problem: LpProblem,
}

impl MpsProblem {
    /// Convert to the canonical maximization problem (negating the objective
    /// if the MPS sense was minimization). The optimal value of the returned
    /// problem is the negation of the MPS optimum in that case.
    pub fn into_max_problem(self) -> LpProblem {
        match self.sense {
            Sense::Maximize => self.problem,
            Sense::Minimize => {
                let c: Vec<f64> = self.problem.c.iter().map(|&v| -v).collect();
                LpProblem::new(self.problem.name, self.problem.a, self.problem.b, c)
            }
        }
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum RowKind {
    Objective,
    Less,
    Greater,
    Equal,
}

/// Read an MPS file from a reader.
pub fn read_mps<R: Read>(reader: R) -> Result<MpsProblem, MpsError> {
    let reader = BufReader::new(reader);
    let mut name = String::from("mps");
    let mut sense = Sense::Minimize;
    let mut section = String::new();
    let mut row_kinds: Vec<RowKind> = Vec::new();
    let mut row_names: HashMap<String, usize> = HashMap::new();
    let mut objective_row: Option<usize> = None;
    let mut col_names: HashMap<String, usize> = HashMap::new();
    // entries[(row, col)] = value, col indexed into col_names.
    let mut entries: Vec<(usize, usize, f64)> = Vec::new();
    let mut rhs: HashMap<usize, f64> = HashMap::new();

    for (lineno, line) in reader.lines().enumerate() {
        let line = line?;
        if line.trim().is_empty() || line.starts_with('*') {
            continue;
        }
        let is_header = !line.starts_with(' ') && !line.starts_with('\t');
        let fields: Vec<&str> = line.split_whitespace().collect();
        if is_header {
            let keyword = fields[0].to_uppercase();
            match keyword.as_str() {
                "NAME" => {
                    if fields.len() > 1 {
                        name = fields[1].to_string();
                    }
                    continue;
                }
                "ROWS" | "COLUMNS" | "RHS" | "ENDATA" | "OBJSENSE" => {
                    section = keyword;
                    continue;
                }
                "BOUNDS" | "RANGES" => {
                    section = keyword.clone();
                    continue;
                }
                other => {
                    return Err(MpsError::Unsupported {
                        line: lineno + 1,
                        feature: other.to_string(),
                    })
                }
            }
        }
        match section.as_str() {
            "ROWS" => {
                if fields.len() < 2 {
                    return Err(MpsError::Parse {
                        line: lineno + 1,
                        message: "short ROWS record".into(),
                    });
                }
                let kind = match fields[0].to_uppercase().as_str() {
                    "N" => RowKind::Objective,
                    "L" => RowKind::Less,
                    "G" => RowKind::Greater,
                    "E" => RowKind::Equal,
                    other => {
                        return Err(MpsError::Parse {
                            line: lineno + 1,
                            message: format!("unknown row type {other}"),
                        })
                    }
                };
                let idx = row_kinds.len();
                row_kinds.push(kind);
                row_names.insert(fields[1].to_string(), idx);
                if kind == RowKind::Objective && objective_row.is_none() {
                    objective_row = Some(idx);
                }
            }
            "COLUMNS" => {
                if fields.len() < 3 {
                    return Err(MpsError::Parse {
                        line: lineno + 1,
                        message: "short COLUMNS record".into(),
                    });
                }
                if fields[1].to_uppercase() == "'MARKER'" || fields.contains(&"'MARKER'") {
                    return Err(MpsError::Unsupported {
                        line: lineno + 1,
                        feature: "integer markers".into(),
                    });
                }
                let next_col = col_names.len();
                let col = *col_names.entry(fields[0].to_string()).or_insert(next_col);
                let mut i = 1;
                while i + 1 < fields.len() {
                    let row_name = fields[i];
                    let value: f64 = fields[i + 1].parse().map_err(|_| MpsError::Parse {
                        line: lineno + 1,
                        message: format!("bad value {}", fields[i + 1]),
                    })?;
                    let row = *row_names.get(row_name).ok_or_else(|| MpsError::Parse {
                        line: lineno + 1,
                        message: format!("unknown row {row_name}"),
                    })?;
                    entries.push((row, col, value));
                    i += 2;
                }
            }
            "RHS" => {
                if fields.len() < 3 {
                    return Err(MpsError::Parse {
                        line: lineno + 1,
                        message: "short RHS record".into(),
                    });
                }
                let mut i = 1;
                while i + 1 < fields.len() {
                    let row_name = fields[i];
                    let value: f64 = fields[i + 1].parse().map_err(|_| MpsError::Parse {
                        line: lineno + 1,
                        message: format!("bad rhs {}", fields[i + 1]),
                    })?;
                    let row = *row_names.get(row_name).ok_or_else(|| MpsError::Parse {
                        line: lineno + 1,
                        message: format!("unknown row {row_name}"),
                    })?;
                    rhs.insert(row, value);
                    i += 2;
                }
            }
            "BOUNDS" => {
                return Err(MpsError::Unsupported {
                    line: lineno + 1,
                    feature: "BOUNDS".into(),
                });
            }
            "RANGES" => {
                return Err(MpsError::Unsupported {
                    line: lineno + 1,
                    feature: "RANGES".into(),
                });
            }
            "OBJSENSE" => {
                if fields[0].to_uppercase().contains("MAX") {
                    sense = Sense::Maximize;
                }
            }
            _ => {
                return Err(MpsError::Parse {
                    line: lineno + 1,
                    message: format!("data outside a known section: {line}"),
                })
            }
        }
    }

    let obj_row = objective_row.ok_or(MpsError::Parse {
        line: 0,
        message: "no objective (N) row".into(),
    })?;
    let n = col_names.len();

    // Assemble constraint rows in ≤ form.
    let mut out_rows: Vec<Vec<(u32, f64)>> = Vec::new();
    let mut out_b: Vec<f64> = Vec::new();
    // Map original row -> list of (output row, multiplier).
    let mut row_map: Vec<Vec<(usize, f64)>> = vec![Vec::new(); row_kinds.len()];
    for (ri, kind) in row_kinds.iter().enumerate() {
        let bi = rhs.get(&ri).copied().unwrap_or(0.0);
        match kind {
            RowKind::Objective => {}
            RowKind::Less => {
                row_map[ri].push((out_rows.len(), 1.0));
                out_rows.push(Vec::new());
                out_b.push(bi);
            }
            RowKind::Greater => {
                row_map[ri].push((out_rows.len(), -1.0));
                out_rows.push(Vec::new());
                out_b.push(-bi);
            }
            RowKind::Equal => {
                row_map[ri].push((out_rows.len(), 1.0));
                out_rows.push(Vec::new());
                out_b.push(bi);
                row_map[ri].push((out_rows.len(), -1.0));
                out_rows.push(Vec::new());
                out_b.push(-bi);
            }
        }
    }
    let mut c = vec![0.0; n];
    for (row, col, value) in entries {
        if row == obj_row {
            c[col] = value;
        } else {
            for &(out_row, mult) in &row_map[row] {
                out_rows[out_row].push((col as u32, mult * value));
            }
        }
    }
    let m = out_rows.len();
    let mut triplets = Vec::new();
    for (i, row) in out_rows.into_iter().enumerate() {
        for (j, v) in row {
            triplets.push((i as u32, j, v));
        }
    }
    Ok(MpsProblem {
        name: name.clone(),
        sense,
        problem: LpProblem::new(name, SparseMatrix::from_triplets(m, n, &triplets), out_b, c),
    })
}

/// Write a problem (interpreted as `max cᵀx, Ax ≤ b, x ≥ 0`) as an MPS file
/// with an `OBJSENSE MAXIMIZE` marker.
pub fn write_mps<W: Write>(problem: &LpProblem, mut writer: W) -> Result<(), MpsError> {
    writeln!(writer, "NAME {}", problem.name)?;
    writeln!(writer, "OBJSENSE")?;
    writeln!(writer, "    MAXIMIZE")?;
    writeln!(writer, "ROWS")?;
    writeln!(writer, " N  COST")?;
    for i in 0..problem.num_rows() {
        writeln!(writer, " L  R{i}")?;
    }
    writeln!(writer, "COLUMNS")?;
    for j in 0..problem.num_cols() {
        if problem.c[j] != 0.0 {
            writeln!(writer, "    X{j}  COST  {}", problem.c[j])?;
        }
        for i in 0..problem.num_rows() {
            let v = problem.a.get(i, j);
            if v != 0.0 {
                writeln!(writer, "    X{j}  R{i}  {v}")?;
            }
        }
    }
    writeln!(writer, "RHS")?;
    for i in 0..problem.num_rows() {
        if problem.b[i] != 0.0 {
            writeln!(writer, "    RHS  R{i}  {}", problem.b[i])?;
        }
    }
    writeln!(writer, "ENDATA")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simplex;

    const SAMPLE: &str = "\
NAME          SAMPLE
ROWS
 N  COST
 L  LIM1
 G  LIM2
COLUMNS
    X1  COST  1.0  LIM1  1.0
    X1  LIM2  1.0
    X2  COST  2.0  LIM1  1.0
RHS
    RHS  LIM1  4.0  LIM2  1.0
ENDATA
";

    #[test]
    fn parses_sample_and_solves() {
        let mps = read_mps(SAMPLE.as_bytes()).unwrap();
        assert_eq!(mps.name, "SAMPLE");
        assert_eq!(mps.sense, Sense::Minimize);
        // Two constraints: x1 + x2 <= 4 and -x1 <= -1 (from x1 >= 1).
        assert_eq!(mps.problem.num_rows(), 2);
        assert_eq!(mps.problem.num_cols(), 2);
        // Minimize x1 + 2 x2 => max -(x1 + 2x2): optimum at x = (1, 0),
        // value -1 for the max form.
        let max_form = mps.into_max_problem();
        let sol = simplex::solve(&max_form);
        assert!((sol.objective + 1.0).abs() < 1e-6, "got {}", sol.objective);
    }

    #[test]
    fn sense_comes_from_objsense_not_the_name() {
        let text = SAMPLE.replace("NAME          SAMPLE", "NAME p|MAXIMIZE");
        let mps = read_mps(text.as_bytes()).unwrap();
        assert_eq!(mps.sense, Sense::Minimize);
        assert_eq!(mps.name, "p|MAXIMIZE");
        assert_eq!(mps.problem.name, "p|MAXIMIZE");
    }

    #[test]
    fn equality_rows_become_two_inequalities() {
        let text = "\
NAME EQ
ROWS
 N obj
 E bal
COLUMNS
    x obj 1.0 bal 1.0
    y obj 1.0 bal 1.0
RHS
    r bal 2.0
ENDATA
";
        let mps = read_mps(text.as_bytes()).unwrap();
        assert_eq!(mps.problem.num_rows(), 2);
        // x + y <= 2 and -(x + y) <= -2.
        let b = &mps.problem.b;
        assert!(b.contains(&2.0) && b.contains(&-2.0));
    }

    #[test]
    fn unsupported_bounds_error() {
        let text = "\
NAME B
ROWS
 N obj
 L r1
COLUMNS
    x obj 1.0 r1 1.0
RHS
    rhs r1 1.0
BOUNDS
 UP BND x 5.0
ENDATA
";
        assert!(matches!(
            read_mps(text.as_bytes()),
            Err(MpsError::Unsupported { .. })
        ));
    }

    #[test]
    fn round_trip_through_writer() {
        let lp = crate::generators::block_lp(&crate::generators::BlockLpSpec {
            name: "rt".into(),
            block_rows: 2,
            block_cols: 2,
            rows_per_block: 2,
            cols_per_block: 2,
            density: 1.0,
            noise: 0.0,
            seed: 1,
        });
        let mut buffer = Vec::new();
        write_mps(&lp, &mut buffer).unwrap();
        let parsed = read_mps(buffer.as_slice()).unwrap();
        assert_eq!(parsed.sense, Sense::Maximize);
        let reparsed = parsed.into_max_problem();
        assert_eq!(reparsed.num_rows(), lp.num_rows());
        assert_eq!(reparsed.num_cols(), lp.num_cols());
        let a = simplex::solve(&lp).objective;
        let b = simplex::solve(&reparsed).objective;
        assert!((a - b).abs() < 1e-6);
    }
}
