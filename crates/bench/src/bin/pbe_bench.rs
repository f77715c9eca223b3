//! `pbe-bench` — the harness CLI.  `artifact` is its one subcommand; the
//! usage text is [`artifact::USAGE`].
//!
//! `artifact` is the one way to run a figure: `--figure NAME` runs one,
//! `--all` the whole evaluation.  With `--store DIR` every executed grid
//! point is persisted under its
//! content key and a re-run executes only the points whose key is missing —
//! so `pbe-bench artifact --all --store results/ --out figures/` twice runs
//! every simulation exactly once total.

use pbe_bench::artifact::{self, ArtifactArgs};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) != Some("artifact") {
        eprintln!("{}", artifact::USAGE);
        return ExitCode::FAILURE;
    }
    match ArtifactArgs::parse(&args[1..]) {
        Ok(parsed) => match artifact::run_artifact(&parsed) {
            Ok(_) => ExitCode::SUCCESS,
            Err(err) => {
                eprintln!("pbe-bench: artifact failed: {err}");
                ExitCode::FAILURE
            }
        },
        Err(err) => {
            eprintln!("pbe-bench: {err}\n{}", artifact::USAGE);
            ExitCode::FAILURE
        }
    }
}
