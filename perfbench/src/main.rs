//! The geospan benchmark binary: runs one workload and prints every metric
//! it measured as the last line of standard output, one JSON object.
//!
//! ```text
//! geospan-perfbench --workload NAME --seed N --seconds S --trace 0|1
//!                   [--scale full|tiny] [--threads T] [--spans FILE]
//! ```
//!
//! `perfbench/run.py` builds this binary, runs it, and maps its result line
//! onto the metric names and units `BENCHMARK.json` declares.

mod report;
mod trace;
mod workloads;

use std::process::ExitCode;
use std::time::Duration;

use workloads::{run_workload, Run, NAMES};

fn usage(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: geospan-perfbench --workload {{{}}} --seed N --seconds S --trace 0|1 \
         [--scale full|tiny] [--threads T] [--spans FILE]",
        NAMES.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut tiny, mut threads) =
        (1u64, 10.0f64, false, false, 1usize);
    let mut spans = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        let bad = || usage(&format!("bad value `{value}` for {flag}"));
        match flag.as_str() {
            "--workload" if NAMES.contains(&value.as_str()) => workload = Some(value.clone()),
            "--seed" => match value.parse() {
                Ok(v) => seed = v,
                Err(_) => return bad(),
            },
            "--seconds" => match value.parse::<f64>() {
                Ok(v) if v > 0.0 && v.is_finite() => seconds = v,
                _ => return bad(),
            },
            "--trace" => match value.as_str() {
                "0" => trace = false,
                "1" => trace = true,
                _ => return bad(),
            },
            "--scale" => match value.as_str() {
                "full" => tiny = false,
                "tiny" => tiny = true,
                _ => return bad(),
            },
            "--threads" => match value.parse::<usize>() {
                Ok(v) if v > 0 => threads = v,
                _ => return bad(),
            },
            "--spans" => spans = Some(value.clone()),
            _ => return bad(),
        }
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };
    // The workspace's data-parallel stages read their worker count from
    // this variable; pin it so a run's thread count is the one recorded.
    std::env::set_var("RAYON_NUM_THREADS", threads.to_string());

    let run = Run {
        seed,
        budget: Duration::from_secs_f64(seconds),
        trace,
        tiny,
        threads,
    };
    let (mut report, tracer) = run_workload(&workload, &run);
    report.meta_str("workload", &workload);
    report.meta("seed", seed.to_string());
    report.meta_str("scale", if tiny { "tiny" } else { "full" });
    report.meta("threads", threads.to_string());
    report.meta(
        "available_parallelism",
        std::thread::available_parallelism()
            .map_or(1, |p| p.get())
            .to_string(),
    );
    report.meta("seconds", format!("{seconds}"));
    report.meta("trace", u8::from(trace).to_string());
    if let (true, Some(path)) = (trace, spans) {
        if let Err(e) = tracer.write_jsonl(std::path::Path::new(&path)) {
            eprintln!("warning: could not write spans to {path}: {e}");
        }
    }
    println!("{}", report.to_json());
    ExitCode::SUCCESS
}
