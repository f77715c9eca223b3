//! Content-key stability goldens.
//!
//! The artifact result store addresses every executed grid point by a
//! content key — 128-bit FNV-1a over the spec's canonical JSON.  These
//! goldens pin the exact keys of representative specs.  The content key is
//! one of the two things `docs/ARCHITECTURE.md` § "Compatibility policy"
//! keeps stable across commits, so any accidental change to the
//! canonicalization rules, the hash function or the spec's serialized shape
//! shows up as a test failure (and a deliberate change is made consciously,
//! knowing it orphans every existing store and moves the benchmark's input
//! digests).

use pbe_bench::sweep::{content_key_of_value, ScenarioSpec};
use pbe_netsim::SchemeChoice;
use pbe_stats::time::Duration;
use serde::Value;

/// The paper's default single-flow scenario — the simplest representative
/// spec.
fn single_flow_spec() -> ScenarioSpec {
    ScenarioSpec::single_flow(
        "golden single flow",
        SchemeChoice::Pbe,
        Duration::from_secs(2),
    )
    .seed(7)
}

/// A spec exercising the optional fields (`shards` set, a named baseline
/// scheme).
fn sharded_spec() -> ScenarioSpec {
    let mut spec = ScenarioSpec::single_flow(
        "golden sharded",
        SchemeChoice::named("CUBIC"),
        Duration::from_secs(3),
    )
    .seed(21);
    spec.shards = Some(2);
    spec
}

/// Recursively reverse the entry order of every JSON object — a worst-case
/// "differently spelled, same meaning" rewrite of the serialized spec.
fn reverse_objects(v: &Value) -> Value {
    match v {
        Value::Array(items) => Value::Array(items.iter().map(reverse_objects).collect()),
        Value::Object(entries) => Value::Object(
            entries
                .iter()
                .rev()
                .map(|(k, val)| (k.clone(), reverse_objects(val)))
                .collect(),
        ),
        other => other.clone(),
    }
}

/// The pinned golden keys.  If this test fails after an intentional change
/// to `ScenarioSpec`'s semantic fields or to the canonicalization, update
/// the constants — and expect every existing result store to re-execute.
#[test]
fn content_keys_match_the_pinned_goldens() {
    const SINGLE_FLOW_KEY: &str = "78d45ce4e275fbcebe1076b16da89ad0";
    const SHARDED_KEY: &str = "19c78f0c3115869435f0d3cdd6baded8";
    assert_eq!(single_flow_spec().content_key(), SINGLE_FLOW_KEY);
    assert_eq!(sharded_spec().content_key(), SHARDED_KEY);
}

/// Field order is spelling, not meaning: reversing every object's entry
/// order in the serialized JSON leaves the key unchanged.
#[test]
fn content_key_is_invariant_under_field_reordering() {
    for spec in [single_flow_spec(), sharded_spec()] {
        let value = serde_json::to_value(&spec).unwrap();
        let reversed = reverse_objects(&value);
        assert_ne!(
            serde_json::to_string(&value).unwrap(),
            serde_json::to_string(&reversed).unwrap(),
            "the rewrite actually changed the spelling"
        );
        assert_eq!(content_key_of_value(&reversed), spec.content_key());
    }
}

/// Explicitly spelling out defaults (`"shards":null`, `"backhaul":null`,
/// `"trajectories":[]`) or omitting those fields entirely hashes the same —
/// the rule that keeps stored keys and benchmark input digests unchanged
/// when a field is added at such a default.
#[test]
fn content_key_is_invariant_under_explicit_serde_defaults() {
    let spec = single_flow_spec();
    let text = serde_json::to_string(&spec).unwrap();
    // The struct serializer writes the defaults explicitly…
    assert!(text.contains("\"shards\":null"));
    assert!(text.contains("\"backhaul\":null"));
    assert!(text.contains("\"trajectories\":[]"));
    let explicit = serde_json::parse(&text).unwrap();

    // …so strip them to get the "omitted" spelling of the same spec.
    let Value::Object(entries) = &explicit else {
        panic!("spec serializes as an object")
    };
    let stripped = Value::Object(
        entries
            .iter()
            .filter(|(k, _)| k != "shards" && k != "backhaul" && k != "trajectories")
            .cloned()
            .collect(),
    );
    assert_eq!(content_key_of_value(&explicit), spec.content_key());
    assert_eq!(content_key_of_value(&stripped), spec.content_key());

    // A *non-default* value for the same field is semantic and must move
    // the key.
    let mut sharded = spec.clone();
    sharded.shards = Some(4);
    assert_ne!(sharded.content_key(), spec.content_key());
}

/// Every semantic field change moves the key.
#[test]
fn semantic_changes_move_the_key() {
    let base = single_flow_spec();
    let base_key = base.content_key();

    let mut relabeled = base.clone();
    relabeled.label = "golden single flow v2".into();
    assert_ne!(relabeled.content_key(), base_key, "label is semantic");

    let mut reseeded = base.clone();
    reseeded.seed = 8;
    assert_ne!(reseeded.content_key(), base_key, "seed is semantic");

    let mut rescheme = base.clone();
    rescheme.scheme = SchemeChoice::named("BBR");
    assert_ne!(rescheme.content_key(), base_key, "scheme is semantic");

    let mut longer = base.clone();
    longer.duration = Duration::from_secs(4);
    assert_ne!(longer.content_key(), base_key, "duration is semantic");

    // And the keys of the two golden specs differ from each other.
    assert_ne!(sharded_spec().content_key(), base_key);
}
