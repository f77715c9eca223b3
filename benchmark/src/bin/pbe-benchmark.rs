//! Timed runs and the suite.  See `pbe_benchmark::cli`.

fn main() -> std::process::ExitCode {
    pbe_benchmark::cli::main(pbe_benchmark::cli::Binary::Timed)
}
