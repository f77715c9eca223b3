//! Traced runs.  The counting allocator is installed here and only here, so
//! allocation counts are exact and the timed binary never pays for them.

#[global_allocator]
static ALLOC: alloc_counter::CountingAllocator = alloc_counter::CountingAllocator;

fn main() -> std::process::ExitCode {
    pbe_benchmark::cli::main(pbe_benchmark::cli::Binary::Traced)
}
