//! Process-level measurement helper for the repo benchmark.
//!
//! The frozen `benchmark/` package imports [`peak_rss_kb`] by this path; the
//! next `[benchmark]` PR may relocate it (ROADMAP item 4, whose list names
//! it) and item 7 then drops this module with the `CellularNetwork` newtype.

/// Peak resident set size of this process, kilobytes (`VmHWM`), or 0.
pub fn peak_rss_kb() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            return rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
        }
    }
    0
}
