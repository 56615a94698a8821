//! The `Workload::fill_ops` contract for the models that override it: a
//! batched fetch emits exactly the stream repeated `next_op` calls emit,
//! fills the whole buffer, and leaves `wants_block` where stepping would.
//! The engine fetches every op through `fill_ops`, while figures and tests
//! often step models with `next_op`, so a divergence would silently
//! change simulated results.

use kyoto_sim::workload::{Op, Workload};
use kyoto_workloads::interactive::Interactive;
use kyoto_workloads::spec::{SpecApp, SpecWorkload};
use proptest::prelude::*;

/// Feeds two copies of a model the same events: before each fetch an
/// optional wake (`action` 0) or reset (`action` 1), then one `fill_ops`
/// of `len` ops into `batched` and `len` `next_op` calls on `stepped`.
fn check_contract<W: Workload>(
    mut batched: W,
    mut stepped: W,
    fetches: &[(usize, u32)],
) -> Result<(), TestCaseError> {
    let mut buf = vec![Op::Compute { cycles: 0 }; 130];
    for (fetch, &(len, action)) in fetches.iter().enumerate() {
        match action {
            0 => {
                batched.on_wake();
                stepped.on_wake();
            }
            1 => {
                batched.reset();
                stepped.reset();
            }
            _ => {}
        }
        // Stale content the fetch must overwrite.
        let buf = &mut buf[..len];
        buf.fill(Op::Store { addr: u64::MAX });
        prop_assert_eq!(batched.fill_ops(buf), len, "fetch {} of {} ops", fetch, len);
        let expected: Vec<Op> = (0..len).map(|_| stepped.next_op()).collect();
        prop_assert_eq!(&buf[..], &expected[..], "fetch {} of {} ops", fetch, len);
        prop_assert_eq!(
            batched.wants_block(),
            stepped.wants_block(),
            "after fetch {}",
            fetch
        );
    }
    Ok(())
}

fn arb_burst() -> impl Strategy<Value = u32> {
    prop_oneof![Just(1u32), 1u32..64, Just(64), Just(65), 65u32..300]
}

fn arb_fetches() -> impl Strategy<Value = Vec<(usize, u32)>> {
    prop::collection::vec((1usize..131, 0u32..6), 1..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// An interactive service: the rest of its burst from the inner model,
    /// then idle padding, across wakes and resets at any point of a burst.
    #[test]
    fn interactive_fill_matches_stepping(
        app in 0usize..SpecApp::ALL.len(),
        seed in 0u64..1_000_000,
        burst in arb_burst(),
        fetches in arb_fetches(),
    ) {
        let model = Interactive::new(SpecWorkload::new(SpecApp::ALL[app], 64, seed), burst);
        check_contract(model.clone(), model, &fetches)?;
    }

    /// A plain SPEC model, resets included.
    #[test]
    fn spec_fill_matches_stepping(
        app in 0usize..SpecApp::ALL.len(),
        seed in 0u64..1_000_000,
        fetches in arb_fetches(),
    ) {
        let model = SpecWorkload::new(SpecApp::ALL[app], 64, seed);
        check_contract(model.clone(), model, &fetches)?;
    }
}
