//! The `geospan-bench` command line: one table of experiments, one
//! flag parser, one output rule.
//!
//! ```text
//! geospan-bench <experiment> [--quick] [--check] [--trials N] [--seed S] [--out DIR]
//! ```
//!
//! Each experiment declares which flags it takes; `--out` (default
//! `results/`) is taken by all, because the driver alone writes the
//! artifacts an experiment returns. Bad input is an `Err`, never a panic.

use std::num::NonZeroUsize;
use std::path::PathBuf;
use std::str::FromStr;

use crate::{churn, extensions, paper, traffic, Scenario, Table};

/// Artifacts an experiment produced, as `(file name, contents)`.
pub type Artifacts = Vec<(String, String)>;

/// An experiment's entry point: reads its flags, prints its console
/// report, pushes its artifacts, and returns `Err` when `--check` fails.
pub type Entry = fn(&Flags, &mut Artifacts) -> Result<(), String>;

/// One runnable experiment.
pub struct Experiment {
    /// Name on the command line (the artifact or figure it regenerates).
    pub name: &'static str,
    /// Flags it takes besides `--out`.
    pub flags: &'static [&'static str],
    /// Entry point.
    pub run: Entry,
}

/// The parsed flags (absent options keep each experiment's defaults).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Flags {
    /// `--quick`: the small CI smoke configuration.
    pub quick: bool,
    /// `--check`: fail unless the experiment's acceptance check holds.
    pub check: bool,
    /// `--trials N`: instances per operating point.
    pub trials: Option<usize>,
    /// `--seed S`: base seed.
    pub seed: Option<u64>,
    /// `--out DIR`: where the driver writes the artifacts.
    pub out: PathBuf,
}

impl Default for Flags {
    fn default() -> Self {
        Flags {
            quick: false,
            check: false,
            trials: None,
            seed: None,
            out: PathBuf::from("results"),
        }
    }
}

impl Flags {
    /// Applies `--trials` and `--seed` to a scenario.
    pub fn scenario(&self, mut s: Scenario) -> Scenario {
        s.trials = self.trials.unwrap_or(s.trials);
        s.seed = self.seed.unwrap_or(s.seed);
        s
    }
}

/// Flags of the scenario-driven experiments.
const SCENARIO: &[&str] = &["--trials", "--seed"];
/// Flags of the traffic sweeps.
const SWEEP: &[&str] = &["--quick", "--check", "--trials", "--seed"];

/// Every experiment, in EXPERIMENTS.md order.
#[rustfmt::skip]
pub const EXPERIMENTS: &[Experiment] = &[
    Experiment { name: "table1", flags: SCENARIO, run: paper::table1 },
    Experiment { name: "fig7_topologies", flags: &["--seed"], run: paper::fig7_topologies },
    Experiment { name: "fig8_degree", flags: SCENARIO, run: paper::fig8_degree },
    Experiment { name: "fig9_stretch", flags: SCENARIO, run: paper::fig9_stretch },
    Experiment { name: "fig10_messages", flags: SCENARIO, run: paper::fig10_messages },
    Experiment { name: "fig11_stretch_radius", flags: SCENARIO, run: paper::fig11_stretch_radius },
    Experiment { name: "fig12_radius", flags: SCENARIO, run: paper::fig12_radius },
    Experiment { name: "ablation_rank", flags: SCENARIO, run: extensions::ablation_rank },
    Experiment { name: "ablation_planarizer", flags: SCENARIO, run: extensions::ablation_planarizer },
    Experiment { name: "power_stretch", flags: SCENARIO, run: extensions::power_stretch },
    Experiment { name: "routing_quality", flags: SCENARIO, run: extensions::routing_quality },
    Experiment { name: "robustness", flags: SCENARIO, run: extensions::robustness },
    Experiment { name: "rdg_comparison", flags: SCENARIO, run: extensions::rdg_comparison },
    Experiment { name: "ldel_variants", flags: SCENARIO, run: extensions::ldel_variants },
    Experiment { name: "traffic_load", flags: SWEEP, run: traffic::traffic_load },
    Experiment { name: "traffic_reliability", flags: SWEEP, run: traffic::traffic_reliability },
    Experiment { name: "traffic_saturation", flags: SWEEP, run: traffic::traffic_saturation },
    Experiment { name: "traffic_churn", flags: SWEEP, run: churn::traffic_churn },
];

/// Prints `table` and records its CSV as the artifact `name`.
pub fn publish(out: &mut Artifacts, name: &str, table: &Table) {
    print!("{}", table.render());
    out.push((name.to_string(), table.csv()));
}

/// Parses `<experiment> [flags]` (the arguments after the program name).
///
/// # Errors
/// An unknown experiment, an unknown flag, a flag the experiment does
/// not take, or a missing or garbled value.
pub fn parse(args: &[String]) -> Result<(&'static Experiment, Flags), String> {
    let (name, rest) = args.split_first().ok_or("no experiment given")?;
    let exp = EXPERIMENTS
        .iter()
        .find(|e| e.name == name)
        .ok_or_else(|| format!("unknown experiment `{name}`"))?;
    let mut flags = Flags::default();
    let mut rest = rest.iter();
    while let Some(flag) = rest.next() {
        let flag = flag.as_str();
        if flag != "--out" && !exp.flags.contains(&flag) {
            let known = EXPERIMENTS.iter().any(|e| e.flags.contains(&flag));
            return Err(if known {
                format!("{} does not take {flag}", exp.name)
            } else {
                format!("unknown flag `{flag}`")
            });
        }
        match flag {
            "--quick" => flags.quick = true,
            "--check" => flags.check = true,
            "--trials" => flags.trials = Some(value::<NonZeroUsize>(flag, rest.next())?.get()),
            "--seed" => flags.seed = Some(value(flag, rest.next())?),
            _ => flags.out = value(flag, rest.next())?,
        }
    }
    Ok((exp, flags))
}

/// Parses the value following `flag`.
fn value<T: FromStr>(flag: &str, raw: Option<&String>) -> Result<T, String> {
    let raw = raw.ok_or_else(|| format!("{flag} needs a value"))?;
    raw.parse()
        .map_err(|_| format!("{flag}: invalid value `{raw}`"))
}

/// The usage text: the command shape and each experiment's flags.
pub fn usage() -> String {
    let mut out = String::from(
        "usage: geospan-bench <experiment> [flags]\n\
         artifacts go to --out DIR (default results/)\n\nexperiments:\n",
    );
    for e in EXPERIMENTS {
        out.push_str(&format!("  {:<22} {}\n", e.name, e.flags.join(" ")));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn flags_parse_into_overrides() {
        let (e, f) = parse(&args(
            "traffic_load --quick --check --trials 3 --seed 9 --out x",
        ))
        .unwrap();
        assert_eq!(e.name, "traffic_load");
        assert_eq!(
            f,
            Flags {
                quick: true,
                check: true,
                trials: Some(3),
                seed: Some(9),
                out: PathBuf::from("x"),
            }
        );
        let (_, f) = parse(&args("table1")).unwrap();
        assert_eq!(f, Flags::default());
        let s = Flags {
            trials: Some(3),
            seed: Some(77),
            ..f
        }
        .scenario(Scenario::table1());
        assert_eq!((s.trials, s.seed, s.n), (3, 77, 100));
    }

    #[test]
    fn every_experiment_is_listed_once() {
        for e in EXPERIMENTS {
            assert_eq!(EXPERIMENTS.iter().filter(|o| o.name == e.name).count(), 1);
            assert!(usage().contains(e.name));
        }
    }
}
