//! Jain's fairness index.
//!
//! Section 6.4 of the paper quantifies multi-user fairness, RTT fairness and
//! TCP friendliness with Jain's index over the PRBs the primary cell
//! allocates to each competing flow (e.g. 99.97 % with two concurrent PBE-CC
//! flows, 98.73 % with three).

/// Jain's fairness index over a set of non-negative allocations.
///
/// Returns a value in `(0, 1]` where 1 means perfectly equal allocations.
/// Returns 1.0 for an empty slice or an all-zero slice (no contention means
/// nothing to be unfair about), matching the convention used in the
/// experiment harness.
pub fn jain_index(allocations: &[f64]) -> f64 {
    if allocations.is_empty() {
        return 1.0;
    }
    let n = allocations.len() as f64;
    let sum: f64 = allocations.iter().sum();
    let sum_sq: f64 = allocations.iter().map(|x| x * x).sum();
    if sum_sq <= 0.0 {
        return 1.0;
    }
    (sum * sum) / (n * sum_sq)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn equal_allocations_are_perfectly_fair() {
        assert!((jain_index(&[10.0, 10.0, 10.0]) - 1.0).abs() < 1e-12);
        assert!((jain_index(&[3.5]) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn totally_unfair_allocation() {
        // One user gets everything among n users: index = 1/n.
        let idx = jain_index(&[100.0, 0.0, 0.0, 0.0]);
        assert!((idx - 0.25).abs() < 1e-12);
    }

    #[test]
    fn known_textbook_value() {
        // Jain's example: allocations 1,2,3 -> (6^2)/(3*14) = 36/42.
        let idx = jain_index(&[1.0, 2.0, 3.0]);
        assert!((idx - 36.0 / 42.0).abs() < 1e-12);
    }

    #[test]
    fn degenerate_inputs() {
        assert_eq!(jain_index(&[]), 1.0);
        assert_eq!(jain_index(&[0.0, 0.0]), 1.0);
    }

    proptest! {
        #[test]
        fn index_is_in_unit_interval(v in proptest::collection::vec(0.0f64..1e6, 1..50)) {
            let idx = jain_index(&v);
            prop_assert!(idx > 0.0 && idx <= 1.0 + 1e-12);
        }

        #[test]
        fn index_lower_bound_is_one_over_n(v in proptest::collection::vec(0.0f64..1e6, 1..50)) {
            let idx = jain_index(&v);
            let n = v.len() as f64;
            prop_assert!(idx >= 1.0 / n - 1e-12);
        }

        #[test]
        fn scale_invariant(v in proptest::collection::vec(0.1f64..1e4, 1..30), k in 0.1f64..100.0) {
            let scaled: Vec<f64> = v.iter().map(|x| x * k).collect();
            prop_assert!((jain_index(&v) - jain_index(&scaled)).abs() < 1e-9);
        }
    }
}
