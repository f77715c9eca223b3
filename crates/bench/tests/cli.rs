//! The `pbe-bench` binary's `main`: subcommand dispatch and the usage text.

use pbe_bench::artifact::{registry, USAGE};
use std::process::{Command, Output};

fn pbe_bench(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pbe-bench"))
        .args(args)
        .output()
        .expect("pbe-bench runs")
}

#[test]
fn unknown_or_missing_subcommand_fails_with_the_artifact_usage() {
    for args in [&["perf"][..], &[]] {
        let out = pbe_bench(args);
        assert!(!out.status.success(), "{args:?} must exit non-zero");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(USAGE),
            "{args:?} prints the usage: {stderr}"
        );
    }
}

#[test]
fn artifact_list_names_every_registered_figure() {
    let out = pbe_bench(&["artifact", "--list"]);
    assert!(out.status.success());
    let stdout = String::from_utf8_lossy(&out.stdout);
    let figures = registry();
    assert_eq!(figures.len(), 16);
    for fig in figures {
        assert!(
            stdout.contains(fig.name),
            "{} is listed: {stdout}",
            fig.name
        );
    }
}
