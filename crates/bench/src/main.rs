//! `geospan-bench <experiment> [flags]` — regenerates one table or
//! figure of the evaluation (run without arguments for the list).
//!
//! ```text
//! cargo run --release -p geospan-bench -- table1 --trials 5
//! cargo run --release -p geospan-bench -- traffic_load --quick --check --out /tmp/smoke
//! ```
//!
//! Every artifact goes to `--out DIR` (default `results/`). Exits
//! non-zero on bad input (after printing the usage) and when a
//! `--check` fails (after writing the artifacts).

use std::process::ExitCode;

use geospan_bench::cli::{parse, usage};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (experiment, flags) = match parse(&args) {
        Ok(parsed) => parsed,
        Err(msg) => {
            eprintln!("error: {msg}\n\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let mut artifacts = Vec::new();
    let verdict = (experiment.run)(&flags, &mut artifacts);
    for (name, contents) in &artifacts {
        let path = flags.out.join(name);
        if let Err(e) =
            std::fs::create_dir_all(&flags.out).and_then(|()| std::fs::write(&path, contents))
        {
            eprintln!("error: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        println!("wrote {}", path.display());
    }
    match verdict {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            eprintln!("check failed: {msg}");
            ExitCode::FAILURE
        }
    }
}
