//! Property: `SelectionSet::ones` — the word-wise `trailing_zeros`
//! walk every fold over a selection goes through — yields exactly the
//! indices a bit-by-bit filter yields, in the same (ascending) order,
//! at every length around the 64-bit word boundaries and after the
//! in-place `set` / `toggle` edits a search applies.

use mv_cost::SelectionSet;
use proptest::prelude::*;

/// The definition `ones` is held to: test every slot in turn.
fn naive(s: &SelectionSet) -> Vec<usize> {
    (0..s.len()).filter(|&k| s.contains(k)).collect()
}

/// A selection of `len` slots from `bits` (cycled).
fn build(len: usize, bits: &[bool]) -> SelectionSet {
    let bools: Vec<bool> = (0..len).map(|k| bits[k % bits.len()]).collect();
    SelectionSet::from_bools(&bools)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn ones_matches_the_naive_filter_at_word_boundaries(
        bits in proptest::collection::vec(proptest::bool::ANY, 1..131),
    ) {
        for len in [0usize, 1, 63, 64, 65, 127, 128, 129, 1_000] {
            let s = build(len, &bits);
            let got: Vec<usize> = s.ones().collect();
            prop_assert_eq!(&got, &naive(&s), "len {}", len);
            prop_assert_eq!(got.len(), s.count_ones(), "len {}", len);
        }
        // Empty and full: no word may be skipped or overrun.
        for len in [0usize, 1, 63, 64, 65, 1_000] {
            prop_assert_eq!(SelectionSet::empty(len).ones().count(), 0);
            let full: Vec<usize> = SelectionSet::full(len).ones().collect();
            prop_assert_eq!(full, (0..len).collect::<Vec<_>>());
        }
    }

    #[test]
    fn ones_matches_the_naive_filter_after_set_and_toggle(
        len in 1usize..200,
        bits in proptest::collection::vec(proptest::bool::ANY, 1..70),
        ops in proptest::collection::vec((proptest::bool::ANY, proptest::bool::ANY, 0usize..200), 1..160),
    ) {
        let mut s = build(len, &bits);
        for (step, &(set, on, at)) in ops.iter().enumerate() {
            let k = at % len;
            if set {
                s.set(k, on);
            } else {
                s.set(k, !s.contains(k));
            }
            prop_assert_eq!(s.ones().collect::<Vec<_>>(), naive(&s), "step {}", step);
        }
    }
}
