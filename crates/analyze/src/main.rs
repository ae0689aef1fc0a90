//! CLI for the workspace's structural lint.
//!
//! ```text
//! cargo run -p geospan-analyze -- --check
//! ```
//!
//! Exit codes: 0 clean (or findings printed without `--check`),
//! 1 usage / IO error, 2 findings under `--check`.

use std::path::PathBuf;
use std::process::ExitCode;

use geospan_analyze::{analyze_workspace, RULES};

#[derive(Debug)]
struct Options {
    root: PathBuf,
    check: bool,
    list_rules: bool,
    explain: Option<String>,
    help: bool,
}

const USAGE: &str = "\
geospan-analyze — workspace structural lint (rules D06, D08, D09, D10)

USAGE:
    geospan-analyze [OPTIONS]

OPTIONS:
    --check              exit 2 when findings remain
    --root <DIR>         workspace root to scan (default: .)
    --list-rules         print the rule table and exit
    --explain <RULE>     print one rule's summary and rationale and exit
    --help               this message
";

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut opts = Options {
        root: PathBuf::from("."),
        check: false,
        list_rules: false,
        explain: None,
        help: false,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--check" => opts.check = true,
            "--root" => {
                opts.root = PathBuf::from(args.next().ok_or("--root needs a value")?);
            }
            "--list-rules" => opts.list_rules = true,
            "--explain" => {
                let rule = args
                    .next()
                    .ok_or("--explain needs a rule id (e.g. D08)")?
                    .to_ascii_uppercase();
                if !RULES.iter().any(|r| r.id == rule) {
                    return Err(format!(
                        "--explain: unknown rule `{rule}` (see --list-rules)"
                    ));
                }
                opts.explain = Some(rule);
            }
            "--help" | "-h" => opts.help = true,
            other => return Err(format!("unknown argument `{other}` (see --help)")),
        }
    }
    Ok(opts)
}

fn run() -> Result<ExitCode, String> {
    let opts = parse_args(std::env::args().skip(1))?;
    if opts.help {
        print!("{USAGE}");
        return Ok(ExitCode::SUCCESS);
    }
    if opts.list_rules {
        for r in RULES {
            println!("{}  {}", r.id, r.summary);
        }
        return Ok(ExitCode::SUCCESS);
    }
    if let Some(rule) = &opts.explain {
        let r = RULES
            .iter()
            .find(|r| r.id == rule)
            .expect("validated during arg parsing");
        println!("{}  {}", r.id, r.summary);
        println!();
        println!("{}", r.rationale);
        return Ok(ExitCode::SUCCESS);
    }
    let findings = analyze_workspace(&opts.root)?;
    for f in &findings {
        println!("{}: {}:{}: {}", f.rule, f.path, f.line, f.message);
        println!("    {}", f.snippet);
    }
    if findings.is_empty() {
        eprintln!("geospan-analyze: clean");
    } else {
        eprintln!("geospan-analyze: {} finding(s)", findings.len());
        if opts.check {
            return Ok(ExitCode::from(2));
        }
    }
    Ok(ExitCode::SUCCESS)
}

fn main() -> ExitCode {
    match run() {
        Ok(code) => code,
        Err(msg) => {
            eprintln!("geospan-analyze: error: {msg}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Options, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn explain_validates_the_rule_id() {
        assert_eq!(
            parse(&["--explain", "d08"]).unwrap().explain.as_deref(),
            Some("D08"),
            "rule ids are case-insensitive"
        );
        assert!(parse(&["--explain", "D99"]).is_err());
        assert!(
            parse(&["--explain", "D04"]).is_err(),
            "retired rule ids are unknown"
        );
        assert!(parse(&["--explain"]).is_err());
    }

    #[test]
    fn check_and_root_flags_parse() {
        let o = parse(&["--check", "--root", "/tmp/x"]).unwrap();
        assert!(o.check);
        assert_eq!(o.root, PathBuf::from("/tmp/x"));
    }

    #[test]
    fn missing_values_for_paths_are_errors() {
        assert!(parse(&["--root"]).is_err());
        assert!(parse(&["--frobnicate"]).is_err());
    }
}
