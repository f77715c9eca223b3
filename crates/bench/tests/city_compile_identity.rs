//! Byte-identity pins of the city-scale compiler.
//!
//! `CityScale::scenario` lowers waypoint walks into per-cell RSSI traces,
//! picks each UE's handover candidates and emits the spec; how it does that
//! (buffers, selection algorithm, order of work) is free to change, what it
//! emits is not.  Each pin is the 128-bit FNV-1a of the compact
//! `sim_config()` JSON of one city shape — the metro and `pbe_city` shapes
//! of the repo benchmark, the degenerate grids and candidate counts at both
//! ends — so a compiler change that moves one byte of any trace, configured
//! cell list or flow fails here.

use pbe_bench::sweep::CityScale;
use pbe_netsim::SchemeChoice;
use pbe_stats::time::Duration;

fn sim_config_hash(city: &CityScale) -> String {
    let json = serde_json::to_string(&city.scenario().sim_config()).expect("config serializes");
    pbe_stats::fnv1a_128_hex(json.as_bytes())
}

/// The `metro_idle` benchmark shape: 10,000 UEs on a 10×10 grid, 16 flows.
fn metro_drive() -> CityScale {
    let mut city = CityScale::driving(10, 10, 10_000)
        .seed(0x3E7)
        .scheme(SchemeChoice::named("CUBIC"))
        .flows_cap(16);
    city.duration = Duration::from_millis(200);
    city
}

/// The `pbe_city` benchmark shape: small, fast cells sampled every 100 ms.
fn pbe_city() -> CityScale {
    let mut city = CityScale::driving(3, 2, 24).seed(7);
    city.duration = Duration::from_secs(2);
    city.speed_mps = 40.0;
    city.cell_spacing_m = 150.0;
    city.trace_step_ms = 100;
    city
}

fn with_cells_per_ue(mut city: CityScale, cells_per_ue: usize) -> CityScale {
    city.cells_per_ue = cells_per_ue;
    city
}

#[test]
fn compiled_city_configs_are_pinned() {
    let shapes: [(&str, CityScale, &str); 8] = [
        (
            "metro drive",
            metro_drive(),
            "28183ef93746d859b070c9e29a1eb09e",
        ),
        ("pbe_city", pbe_city(), "4415dd08dbbff3546e8f8fa2df8af9f2"),
        (
            "1x1 grid",
            CityScale::walking(1, 1, 6).seconds(5).seed(3),
            "638a426a486ab87661b5688c0187952e",
        ),
        (
            "one cell per UE",
            with_cells_per_ue(CityScale::driving(4, 3, 20).seconds(6).seed(5), 1),
            "427a6ad4be85fefe77031c28abcc1a85",
        ),
        (
            "eight cells per UE",
            with_cells_per_ue(CityScale::driving(5, 5, 20).seconds(6).seed(6), 8),
            "261d808b25b8be8e48d6409c9b8927a0",
        ),
        (
            "more slots than candidates",
            with_cells_per_ue(CityScale::driving(2, 2, 10).seconds(6).seed(8), 8),
            "759948213df1c8f58b73a6cbde55184b",
        ),
        (
            "capped walk",
            CityScale::walking(4, 4, 30).flows_cap(5).seed(9),
            "a5f6122d6cfa5cf03117b69d20b4c8c5",
        ),
        (
            "long walk on a wide grid",
            CityScale::walking(8, 6, 12).seconds(120).seed(10),
            "d80b97247324ae38632193b05514f172",
        ),
    ];
    let mut moved = Vec::new();
    for (name, city, pin) in &shapes {
        let hash = sim_config_hash(city);
        if hash != *pin {
            moved.push(format!("{name}: {hash} (pinned {pin})"));
        }
    }
    assert!(
        moved.is_empty(),
        "compiled configs moved:\n{}",
        moved.join("\n")
    );
}
