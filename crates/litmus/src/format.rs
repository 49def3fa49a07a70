//! A text file format for litmus tests, so new shapes can be added and
//! run without recompiling.
//!
//! ```text
//! // name: MP-custom
//! // description: message passing with a twist
//! // expect-ra: forbidden
//! // expect-sc: forbidden
//! // exists: 2:r0=1 && 2:r1=0 && final:x=2
//! // max-events: 24
//! vars d f x;
//! thread t1 { d := 5; f :=R 1; x := 2; }
//! thread t2 { r0 <-A f; r1 <- d; }
//! ```
//!
//! Header lines are `// key: value` comments at the top of the file; the
//! remainder is a `c11-lang` DSL program. The `exists` clause is a
//! conjunction of `T:rN=V` (register of thread `T`) and `final:var=V`
//! (final value of a variable) conditions. `expect-ra` / `expect-sc` are
//! `allowed` or `forbidden`. Defaults: both `forbidden`, 24 events.

use crate::corpus::{Cond, LitmusTest, Verdict};

/// An error while parsing a `.litmus` file.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FormatError {
    /// What went wrong.
    pub msg: String,
}

impl std::fmt::Display for FormatError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "litmus format error: {}", self.msg)
    }
}

impl std::error::Error for FormatError {}

fn err<T>(msg: impl Into<String>) -> Result<T, FormatError> {
    Err(FormatError { msg: msg.into() })
}

fn parse_verdict(v: &str) -> Result<Verdict, FormatError> {
    let v = v.trim();
    Verdict::parse(v).map_or_else(
        || {
            let names: Vec<&str> = Verdict::ALL.iter().map(Verdict::name).collect();
            err(format!("bad verdict {v:?} ({})", names.join("|")))
        },
        Ok,
    )
}

fn parse_cond(c: &str) -> Result<Cond, FormatError> {
    let c = c.trim();
    let (lhs, rhs) = c.split_once('=').ok_or_else(|| FormatError {
        msg: format!("condition {c:?} needs `=`"),
    })?;
    let val: u32 = rhs.trim().parse().map_err(|e| FormatError {
        msg: format!("bad value in {c:?}: {e}"),
    })?;
    let lhs = lhs.trim();
    if let Some(var) = lhs.strip_prefix("final:") {
        return Ok(Cond::FinalVar {
            var: var.trim().to_string(),
            val,
        });
    }
    let (t, r) = lhs.split_once(':').ok_or_else(|| FormatError {
        msg: format!("condition {c:?} needs `T:rN` or `final:var`"),
    })?;
    let thread: u8 = t.trim().parse().map_err(|e| FormatError {
        msg: format!("bad thread in {c:?}: {e}"),
    })?;
    let reg: u8 = r
        .trim()
        .strip_prefix('r')
        .ok_or_else(|| FormatError {
            msg: format!("register in {c:?} must be rN"),
        })?
        .parse()
        .map_err(|e| FormatError {
            msg: format!("bad register in {c:?}: {e}"),
        })?;
    Ok(Cond::Reg { thread, reg, val })
}

/// Parses a `.litmus` file (header comments + DSL program).
pub fn parse_litmus(src: &str) -> Result<LitmusTest, FormatError> {
    let mut name = String::from("unnamed");
    let mut description = String::new();
    let mut expect_ra = Verdict::Forbidden;
    let mut expect_sc = Verdict::Forbidden;
    let mut outcome: Option<Vec<Cond>> = None;
    let mut max_events = 24usize;
    let mut program_lines: Vec<&str> = Vec::new();
    let mut in_header = true;

    for line in src.lines() {
        let trimmed = line.trim();
        if in_header && trimmed.starts_with("//") {
            let body = trimmed.trim_start_matches('/').trim();
            if let Some((key, value)) = body.split_once(':') {
                match key.trim() {
                    "name" => name = value.trim().to_string(),
                    "description" => description = value.trim().to_string(),
                    "expect-ra" => expect_ra = parse_verdict(value)?,
                    "expect-sc" => expect_sc = parse_verdict(value)?,
                    "max-events" => {
                        max_events = value.trim().parse().map_err(|e| FormatError {
                            msg: format!("bad max-events: {e}"),
                        })?
                    }
                    "exists" => {
                        let conds: Result<Vec<Cond>, _> =
                            value.split("&&").map(parse_cond).collect();
                        outcome = Some(conds?);
                    }
                    _ => {} // unknown header keys are ignored (forward compat)
                }
                continue;
            }
            continue; // plain comment in header
        }
        if !trimmed.is_empty() {
            in_header = false;
        }
        program_lines.push(line);
    }
    let source = program_lines.join("\n");
    let outcome = match outcome {
        Some(o) if !o.is_empty() => o,
        _ => return err("missing or empty `// exists:` clause"),
    };
    // Validate the program eagerly so file errors surface at load time.
    c11_lang::parse_program(&source).map_err(|e| FormatError {
        msg: format!("program does not parse: {e}"),
    })?;
    Ok(LitmusTest {
        name,
        description,
        source,
        outcome,
        expect_ra,
        expect_sc,
        max_events,
    })
}

/// Longest `.litmus` file [`load_litmus_file`] reads (1 MiB, the
/// services' request cap): a litmus test is a few hundred bytes, and a
/// path naming something bigger is refused rather than read into memory.
pub const MAX_LITMUS_BYTES: usize = 1 << 20;

/// Loads a `.litmus` file from disk. Only regular files are read — the
/// check runs on the path before anything is opened, so a FIFO or a
/// device such as `/dev/zero` is never opened — and a file longer than
/// [`MAX_LITMUS_BYTES`] is an error, not a read.
pub fn load_litmus_file(path: &std::path::Path) -> Result<LitmusTest, FormatError> {
    use std::io::Read as _;
    let cannot = |why: String| FormatError {
        msg: format!("cannot read {}: {why}", path.display()),
    };
    let meta = std::fs::metadata(path).map_err(|e| cannot(e.to_string()))?;
    if !meta.is_file() {
        return Err(cannot("not a regular file".to_string()));
    }
    let mut bytes = Vec::new();
    std::fs::File::open(path)
        .and_then(|f| f.take(MAX_LITMUS_BYTES as u64 + 1).read_to_end(&mut bytes))
        .map_err(|e| cannot(e.to_string()))?;
    if bytes.len() > MAX_LITMUS_BYTES {
        return Err(cannot(format!(
            "longer than the {MAX_LITMUS_BYTES}-byte cap"
        )));
    }
    let src = String::from_utf8(bytes).map_err(|e| cannot(e.to_string()))?;
    parse_litmus(&src)
}

/// Loads every `*.litmus` file in a directory (sorted by file name).
pub fn load_litmus_dir(dir: &std::path::Path) -> Result<Vec<LitmusTest>, FormatError> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| FormatError {
            msg: format!("cannot read {}: {e}", dir.display()),
        })?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "litmus"))
        .collect();
    paths.sort();
    paths.iter().map(|p| load_litmus_file(p)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    const MP: &str = "\
// name: MP-file
// description: message passing from a file
// expect-ra: forbidden
// expect-sc: forbidden
// exists: 2:r0=1 && 2:r1=0
vars d f;
thread t1 { d := 5; f :=R 1; }
thread t2 { r0 <-A f; r1 <- d; }
";

    #[test]
    fn parses_full_header() {
        let t = parse_litmus(MP).unwrap();
        assert_eq!(t.name, "MP-file");
        assert_eq!(t.expect_ra, Verdict::Forbidden);
        assert_eq!(
            t.outcome,
            vec![
                Cond::Reg {
                    thread: 2,
                    reg: 0,
                    val: 1
                },
                Cond::Reg {
                    thread: 2,
                    reg: 1,
                    val: 0
                }
            ]
        );
        // And it runs with the expected verdict.
        let r = crate::runner::run_test(&t);
        assert!(r.pass, "{r:?}");
    }

    #[test]
    fn final_var_conditions() {
        let src = "\
// name: coww
// expect-ra: forbidden
// expect-sc: forbidden
// exists: final:x=1
vars x;
thread t1 { x := 1; x := 2; }
";
        let t = parse_litmus(src).unwrap();
        assert_eq!(
            t.outcome,
            vec![Cond::FinalVar {
                var: "x".into(),
                val: 1
            }]
        );
        assert!(crate::runner::run_test(&t).pass);
    }

    #[test]
    fn missing_exists_rejected() {
        let src = "// name: x\nvars x;\nthread t { x := 1; }\n";
        assert!(parse_litmus(src).is_err());
    }

    #[test]
    fn bad_program_rejected_at_load() {
        let src = "// exists: 1:r0=1\nvars x;\nthread t { y := 1; }\n";
        let e = parse_litmus(src).unwrap_err();
        assert!(e.msg.contains("does not parse"));
    }

    #[test]
    fn bad_conditions_rejected() {
        for c in ["// exists: r0=1", "// exists: 1:x=1", "// exists: 1:r0"] {
            let src = format!("{c}\nvars x;\nthread t {{ x := 1; }}\n");
            assert!(parse_litmus(&src).is_err(), "{c}");
        }
    }

    #[test]
    fn defaults_applied() {
        let src = "// exists: 1:r0=0\nvars x;\nthread t { r0 <- x; }\n";
        let t = parse_litmus(src).unwrap();
        assert_eq!(t.name, "unnamed");
        assert_eq!(t.max_events, 24);
        assert_eq!(t.expect_sc, Verdict::Forbidden);
    }
}
