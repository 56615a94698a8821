//! The `BENCH_substrate.json` ledger: write/read round trips, the gate's
//! verdicts, and hostile input.

use kyoto_bench::ledger::{check, default_floors, Ledger, LedgerError, Verdict, MAX_BYTES};
use proptest::prelude::*;

/// A committed ledger from before the `workload_fill_ops_lbm` and
/// `credit_pick_next_16vcpus` rows existed, measured on a 2-thread host.
const FIXTURE: &str = include_str!("fixtures/bench_substrate_v1.json");

/// `(from, to)` replacements in the fixture.
type Edits<'a> = &'a [(&'a str, &'a str)];

/// The fixture with `replacements` applied (each `from` must occur).
fn edited(replacements: Edits) -> String {
    let mut text = FIXTURE.to_string();
    for (from, to) in replacements {
        assert!(text.contains(from), "fixture lacks {from:?}");
        text = text.replace(from, to);
    }
    text
}

fn gate(text: &str) -> Result<Verdict, LedgerError> {
    check(&Ledger::parse(text.as_bytes())?, &default_floors())
}

fn failures(text: &str) -> Vec<String> {
    let verdict = gate(text).expect("the file gates");
    verdict.failures().map(ToString::to_string).collect()
}

const CHURN: &str = "\"6_cells\": 1.86";
const CHURN_FAILURE: &str =
    "fleet_churn_parallel_vs_serial.6_cells 1.02 < 1.1 [cell-parallel cluster epochs under churn]";

#[test]
fn every_section_survives_a_round_trip_and_the_fixture_passes() {
    let ledger = Ledger::parse(FIXTURE.as_bytes()).expect("the fixture parses");
    assert_eq!(ledger.to_json(), FIXTURE, "rewriting changes no byte");
    assert_eq!((ledger.rows.len(), ledger.sections.len()), (35, 8));
    assert_eq!(ledger.scaling_curve.len(), 4);
    let verdict = check(&ledger, &default_floors()).expect("the fixture gates");
    assert_eq!((verdict.outcomes.len(), verdict.skipped.len()), (10, 0));
    assert_eq!(verdict.failures().count(), 0);
}

#[test]
fn missing_entries_are_errors_naming_them() {
    let churn = "  \"fleet_churn_parallel_vs_serial\": {\n    \"6_cells\": 1.86\n  },\n";
    let cases = [
        (churn, "no `fleet_churn_parallel_vs_serial` to gate [cell-parallel cluster epochs under churn]"),
        ("    \"off_vs_untraced\": 1.02,\n", "no `trace_overhead.off_vs_untraced` to gate [disabled trace plane]"),
        ("  \"parallel_bench_threads\": 2,\n", "no `parallel_bench_threads` entry"),
    ];
    for (line, error) in cases {
        let verdict = gate(&edited(&[(line, "")]));
        assert_eq!(verdict.err().map(|e| e.to_string()).as_deref(), Some(error));
    }
}

#[test]
fn every_value_below_its_floor_or_not_finite_is_reported() {
    let trace = "trace_overhead.off_vs_untraced";
    let fault =
        "fault_machinery_overhead.zero_rate_plan_vs_no_plan 0.70 < 0.8 [cluster fault boundary]";
    let cases: [(Edits, Vec<String>); 4] = [
        (
            &[("1.02,", "NaN,")],
            vec![format!("{trace} NaN < 0.95 [disabled trace plane]")],
        ),
        (
            &[("1.02,", "inf,")],
            vec![format!("{trace} inf < 0.95 [disabled trace plane]")],
        ),
        (
            &[(CHURN, "\"6_cells\": 1.02")],
            vec![CHURN_FAILURE.to_string()],
        ),
        (
            &[(CHURN, "\"6_cells\": 1.02"), ("0.85", "0.70")],
            vec![CHURN_FAILURE.to_string(), fault.to_string()],
        ),
    ];
    for (edits, expected) in cases {
        assert_eq!(failures(&edited(edits)), expected);
    }
}

#[test]
fn one_thread_skips_exactly_the_parallel_gates() {
    let text = edited(&[
        (
            "\"parallel_bench_threads\": 2",
            "\"parallel_bench_threads\": 1",
        ),
        (CHURN, "\"6_cells\": 1.02"),
    ]);
    let verdict = gate(&text).expect("the file gates");
    let skipped: Vec<_> = verdict.skipped.iter().map(|gate| gate.section).collect();
    assert_eq!(
        skipped,
        [
            "parallel_vs_serial_speedup_cloud",
            "cluster_epoch_parallel_vs_serial",
            "fleet_churn_parallel_vs_serial"
        ]
    );
    assert_eq!((verdict.outcomes.len(), verdict.failures().count()), (5, 0));
}

#[test]
fn oversized_truncated_and_unreadable_files_are_typed_errors() {
    let oversized = vec![b' '; MAX_BYTES + 1];
    assert_eq!(Ledger::parse(&oversized), Err(LedgerError::TooLarge));
    let third = &FIXTURE.as_bytes()[..FIXTURE.len() / 3];
    assert!(matches!(
        Ledger::parse(third),
        Err(LedgerError::Malformed(_))
    ));
    let exponent = edited(&[("\"off_vs_untraced\": 1.02", "\"off_vs_untraced\": 1e300")]);
    assert_eq!(
        Ledger::parse(exponent.as_bytes()),
        Err(LedgerError::Malformed(70))
    );
    let missing = Ledger::read("no/such/BENCH_substrate.json".as_ref());
    assert!(matches!(missing, Err(LedgerError::Unreadable(_))));
}

/// Characters of the layout itself, so generated text gets past the first
/// line more often than uniform bytes do.
const ALPHABET: &[u8] = b"{}[]\":, \n0123456789.-_acdeilmnrstuv";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_give_a_typed_error(
        bytes in prop::collection::vec(0u16..256, 0..4096),
        layout in prop::collection::vec(0usize..ALPHABET.len(), 0..512),
    ) {
        let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        prop_assert!(Ledger::parse(&bytes).is_err());
        let mut text = b"{\n  \"".to_vec();
        text.extend(layout.into_iter().map(|i| ALPHABET[i]));
        prop_assert!(Ledger::parse(&text).is_err());
    }

    #[test]
    fn truncations_and_byte_flips_never_panic(
        cut in 0..FIXTURE.len() - 1,
        at in 0..FIXTURE.len(),
        byte in 0u16..256,
    ) {
        prop_assert!(Ledger::parse(&FIXTURE.as_bytes()[..cut]).is_err());
        let mut flipped = FIXTURE.as_bytes().to_vec();
        flipped[at] = byte as u8;
        if let Ok(ledger) = Ledger::parse(&flipped) {
            let _ = check(&ledger, &default_floors());
        }
    }
}
