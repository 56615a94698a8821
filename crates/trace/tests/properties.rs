//! Property tests of the trace text format: render/parse are inverses
//! over arbitrary event streams, and the Chrome JSON conversion of any
//! document stays syntactically valid. The two readers of outside input,
//! `TraceDoc::parse` and `validate_json`, return `Ok` or `Err` on garbage,
//! truncations and byte flips of valid documents, and never panic.

use kyoto_trace::{to_chrome_json, validate_json, DocEvent, Histogram, TraceDoc};
use proptest::prelude::*;

const NAMES: [&str; 8] = [
    "engine.run_slots",
    "cell.epoch",
    "cluster.boundary",
    "planner.plan",
    "service.admission",
    "hv.pick",
    "engine.cycles",
    "engine.batch_cycles",
];
const TRACKS: [&str; 4] = ["engine", "cell0.engine", "cluster", "service"];
const ARGS: [&str; 5] = [
    "",
    "req=7",
    "cell=0 vm=3",
    "kind=place cell=1",
    "a=1 b=2 c=3",
];

proptest! {
    #[test]
    fn render_parse_round_trips_arbitrary_streams(
        counters in prop::collection::vec((0usize..8, 0u64..1 << 62), 0..8),
        hists in prop::collection::vec(
            (0usize..8, prop::collection::vec(0u64..1_000_000, 0..6)),
            0..4,
        ),
        events in prop::collection::vec(
            ((0usize..4, 0usize..8), 0u64..1_000_000, prop::option::of(0u64..10_000), 0usize..5),
            0..32,
        ),
    ) {
        let mut doc = TraceDoc::default();
        for (name, value) in counters {
            doc.counters.push((NAMES[name].to_string(), value));
        }
        for (name, values) in hists {
            let mut hist = Histogram::default();
            for value in values {
                hist.record(value);
            }
            doc.histograms.push((NAMES[name].to_string(), hist));
        }
        for ((track, name), ts, dur, arg) in events {
            doc.events.push(DocEvent {
                track: TRACKS[track].to_string(),
                name: NAMES[name].to_string(),
                ts,
                dur,
                arg: ARGS[arg].to_string(),
            });
        }

        // parse(render(doc)) == doc ...
        let text = doc.render();
        let parsed = TraceDoc::parse(&text).expect("rendered documents parse");
        prop_assert_eq!(&parsed, &doc);
        // ... and render(parse(text)) == text (canonical inverse).
        prop_assert_eq!(parsed.render(), text);

        // Appended comments never change the parse.
        let mut annotated = text.clone();
        annotated.push_str("\n# cycle profile\n# engine.run_slots 1 2 3\n");
        prop_assert_eq!(TraceDoc::parse(&annotated).expect("comments ignored"), doc.clone());

        // The Perfetto export of any document is well-formed JSON.
        let json = to_chrome_json(&doc);
        prop_assert!(validate_json(&json).is_ok(), "invalid chrome JSON: {:?}", validate_json(&json));
    }
}

/// A valid document touching every line kind of the text format.
fn sample_doc() -> TraceDoc {
    let mut doc = TraceDoc::default();
    doc.counters.push((NAMES[6].to_string(), 123_456));
    let mut hist = Histogram::default();
    for value in [0, 7, 100, 65_536] {
        hist.record(value);
    }
    doc.histograms.push((NAMES[7].to_string(), hist));
    for (i, arg) in ARGS.iter().enumerate() {
        doc.events.push(DocEvent {
            track: TRACKS[i % TRACKS.len()].to_string(),
            name: NAMES[i].to_string(),
            ts: 1_000 * i as u64,
            dur: (i % 2 == 0).then_some(250),
            arg: arg.to_string(),
        });
    }
    doc
}

/// Both readers on one input: whatever it is, each returns.
fn read_both(text: &str) {
    let _ = TraceDoc::parse(text);
    let _ = validate_json(text);
}

#[test]
fn every_truncation_of_a_valid_document_is_read_without_panicking() {
    let doc = sample_doc();
    for valid in [doc.render(), to_chrome_json(&doc)] {
        let bytes = valid.as_bytes();
        for cut in 0..=bytes.len() {
            read_both(&String::from_utf8_lossy(&bytes[..cut]));
        }
    }
}

/// Characters of the JSON grammar, so generated text nests and gets past
/// the first token more often than uniform bytes do.
const JSON_ALPHABET: &[u8] = b"{}[]\":, 0123456789.-+eE\\truefalsn";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_are_read_without_panicking(
        bytes in prop::collection::vec(0u16..256, 0..4096),
        layout in prop::collection::vec(0usize..JSON_ALPHABET.len(), 0..2048),
    ) {
        let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
        read_both(&String::from_utf8_lossy(&bytes));
        let layout: Vec<u8> = layout.into_iter().map(|i| JSON_ALPHABET[i]).collect();
        read_both(&String::from_utf8_lossy(&layout));
        let mut versioned = b"version 1\n".to_vec();
        versioned.extend(&bytes);
        read_both(&String::from_utf8_lossy(&versioned));
    }

    #[test]
    fn byte_flips_of_a_valid_document_are_read_without_panicking(
        at in 0usize..1 << 16,
        byte in 0u16..256,
    ) {
        let doc = sample_doc();
        for valid in [doc.render(), to_chrome_json(&doc)] {
            let mut flipped = valid.into_bytes();
            let at = at % flipped.len();
            flipped[at] = byte as u8;
            read_both(&String::from_utf8_lossy(&flipped));
        }
    }
}
