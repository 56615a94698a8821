//! Chrome trace-event JSON export (loadable in Perfetto / `chrome://tracing`).
//!
//! The exporter maps a [`TraceDoc`] onto the trace-event array format:
//! one `M` (metadata) event naming each track as a thread, one `X`
//! (complete) event per span, one `i` (instant) event per instant and one
//! `C` (counter) event per counter and histogram aggregate. The `ts`/`dur`
//! fields carry **simulated cycles**, not microseconds — Perfetto renders
//! them on a linear timebase either way, and the simulated domain is the
//! whole point (see DESIGN.md, Observability).
//!
//! Thread ids are assigned from the sorted set of track names, so the
//! export is deterministic for a deterministic document. The hand-rolled
//! [`validate_json`] syntax checker (this crate is dependency-free) lets
//! callers and CI assert the export is well-formed without a JSON
//! library.

use crate::format::TraceDoc;
use std::collections::BTreeSet;

/// Escapes a string for a JSON string literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Renders a document as a Chrome trace-event JSON array.
pub fn to_chrome_json(doc: &TraceDoc) -> String {
    let tracks: BTreeSet<&str> = doc.events.iter().map(|e| e.track.as_str()).collect();
    let tid = |track: &str| -> usize {
        tracks
            .iter()
            .position(|t| *t == track)
            .map(|i| i + 1)
            .unwrap_or(0)
    };
    let mut entries: Vec<String> = Vec::new();
    for (index, track) in tracks.iter().enumerate() {
        entries.push(format!(
            "{{\"ph\":\"M\",\"pid\":1,\"tid\":{},\"name\":\"thread_name\",\"args\":{{\"name\":\"{}\"}}}}",
            index + 1,
            escape(track)
        ));
    }
    for event in &doc.events {
        let args = if event.arg.is_empty() {
            String::new()
        } else {
            format!(",\"args\":{{\"arg\":\"{}\"}}", escape(&event.arg))
        };
        match event.dur {
            Some(dur) => entries.push(format!(
                "{{\"ph\":\"X\",\"pid\":1,\"tid\":{},\"name\":\"{}\",\"ts\":{},\"dur\":{}{}}}",
                tid(&event.track),
                escape(&event.name),
                event.ts,
                dur,
                args
            )),
            None => entries.push(format!(
                "{{\"ph\":\"i\",\"pid\":1,\"tid\":{},\"name\":\"{}\",\"ts\":{},\"s\":\"t\"{}}}",
                tid(&event.track),
                escape(&event.name),
                event.ts,
                args
            )),
        }
    }
    for (name, value) in &doc.counters {
        entries.push(format!(
            "{{\"ph\":\"C\",\"pid\":1,\"tid\":0,\"name\":\"{}\",\"ts\":0,\"args\":{{\"value\":{}}}}}",
            escape(name),
            value
        ));
    }
    for (name, hist) in &doc.histograms {
        entries.push(format!(
            "{{\"ph\":\"C\",\"pid\":1,\"tid\":0,\"name\":\"{}\",\"ts\":0,\"args\":{{\"count\":{},\"total\":{}}}}}",
            escape(name),
            hist.count,
            hist.total
        ));
    }
    let mut out = String::from("[\n");
    for (index, entry) in entries.iter().enumerate() {
        out.push_str(entry);
        if index + 1 < entries.len() {
            out.push(',');
        }
        out.push('\n');
    }
    out.push_str("]\n");
    out
}

/// Deepest array/object nesting [`validate_json`] accepts. The checker
/// recurses once per level, so the cap bounds its stack use on hostile
/// input; trace exports nest three levels deep.
pub const MAX_JSON_DEPTH: usize = 1024;

/// A minimal JSON syntax checker: accepts exactly the RFC 8259 grammar
/// (objects, arrays, strings with escapes, numbers, `true`/`false`/
/// `null`) nested at most [`MAX_JSON_DEPTH`] levels deep, and reports the
/// byte offset of the first violation.
pub fn validate_json(text: &str) -> Result<(), String> {
    let bytes = text.as_bytes();
    let mut pos = 0usize;
    skip_ws(bytes, &mut pos);
    parse_value(bytes, &mut pos, 0)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing content at byte {pos}"));
    }
    Ok(())
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parses one value whose enclosing arrays and objects are `depth` deep.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<(), String> {
    match bytes.get(*pos) {
        Some(b'{' | b'[') if depth == MAX_JSON_DEPTH => Err(format!(
            "nesting deeper than {MAX_JSON_DEPTH} levels at byte {}",
            *pos
        )),
        Some(b'{') => parse_object(bytes, pos, depth + 1),
        Some(b'[') => parse_array(bytes, pos, depth + 1),
        Some(b'"') => parse_string(bytes, pos),
        Some(b't') => parse_literal(bytes, pos, b"true"),
        Some(b'f') => parse_literal(bytes, pos, b"false"),
        Some(b'n') => parse_literal(bytes, pos, b"null"),
        Some(c) if c.is_ascii_digit() || *c == b'-' => parse_number(bytes, pos),
        Some(c) => Err(format!("unexpected byte {c:#04x} at {}", *pos)),
        None => Err("unexpected end of input".to_string()),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, literal: &[u8]) -> Result<(), String> {
    if bytes[*pos..].starts_with(literal) {
        *pos += literal.len();
        Ok(())
    } else {
        Err(format!("bad literal at byte {}", *pos))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    let mut digits = 0;
    while *pos < bytes.len() && bytes[*pos].is_ascii_digit() {
        *pos += 1;
        digits += 1;
    }
    if digits == 0 {
        return Err(format!("bad number at byte {start}"));
    }
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        let mut frac = 0;
        while *pos < bytes.len() && bytes[*pos].is_ascii_digit() {
            *pos += 1;
            frac += 1;
        }
        if frac == 0 {
            return Err(format!("bad fraction at byte {start}"));
        }
    }
    if matches!(bytes.get(*pos), Some(b'e') | Some(b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+') | Some(b'-')) {
            *pos += 1;
        }
        let mut exp = 0;
        while *pos < bytes.len() && bytes[*pos].is_ascii_digit() {
            *pos += 1;
            exp += 1;
        }
        if exp == 0 {
            return Err(format!("bad exponent at byte {start}"));
        }
    }
    Ok(())
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<(), String> {
    debug_assert_eq!(bytes.get(*pos), Some(&b'"'));
    *pos += 1;
    while let Some(&c) = bytes.get(*pos) {
        match c {
            b'"' => {
                *pos += 1;
                return Ok(());
            }
            b'\\' => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') | Some(b'\\') | Some(b'/') | Some(b'b') | Some(b'f')
                    | Some(b'n') | Some(b'r') | Some(b't') => *pos += 1,
                    Some(b'u') => {
                        *pos += 1;
                        for _ in 0..4 {
                            if !bytes
                                .get(*pos)
                                .map(|b| b.is_ascii_hexdigit())
                                .unwrap_or(false)
                            {
                                return Err(format!("bad unicode escape at byte {}", *pos));
                            }
                            *pos += 1;
                        }
                    }
                    _ => return Err(format!("bad escape at byte {}", *pos)),
                }
            }
            c if c < 0x20 => return Err(format!("raw control byte in string at {}", *pos)),
            _ => *pos += 1,
        }
    }
    Err("unterminated string".to_string())
}

fn parse_object(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<(), String> {
    *pos += 1; // {
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {}", *pos));
        }
        parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {}", *pos));
        }
        *pos += 1;
        skip_ws(bytes, pos);
        parse_value(bytes, pos, depth)?;
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or '}}' at byte {}", *pos)),
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<(), String> {
    *pos += 1; // [
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(());
    }
    loop {
        skip_ws(bytes, pos);
        parse_value(bytes, pos, depth)?;
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(());
            }
            _ => return Err(format!("expected ',' or ']' at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::{TraceConfig, TraceSink};

    #[test]
    fn export_is_valid_json_with_thread_metadata() {
        let mut sink = TraceSink::new(TraceConfig::On);
        sink.span("engine", "engine.run_slots", 0, 100);
        sink.instant_with(
            "service",
            "service.admit",
            7,
            "req=1 \"quoted\"".to_string(),
        );
        sink.counter_add("engine.cycles", 100);
        sink.hist_record("engine.batch_cycles", 100);
        let json = to_chrome_json(&TraceDoc::from_sink(&sink));
        validate_json(&json).unwrap();
        assert!(json.contains("\"thread_name\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("req=1 \\\"quoted\\\""));
    }

    #[test]
    fn empty_doc_exports_an_empty_array() {
        let json = to_chrome_json(&TraceDoc::default());
        validate_json(&json).unwrap();
    }

    #[test]
    fn validator_accepts_and_rejects() {
        validate_json("{\"a\": [1, 2.5, -3e2, \"x\\n\", true, null]}").unwrap();
        assert!(validate_json("").is_err());
        assert!(validate_json("[1,]").is_err());
        assert!(validate_json("{\"a\" 1}").is_err());
        assert!(validate_json("\"unterminated").is_err());
        assert!(validate_json("[1] trailing").is_err());
        assert!(validate_json("01").is_ok()); // lenient: leading zeros pass the syntax check
        assert!(validate_json("1.").is_err());
    }

    #[test]
    fn nesting_is_capped_instead_of_overflowing_the_stack() {
        let at_cap = format!(
            "{}{}",
            "[".repeat(MAX_JSON_DEPTH),
            "]".repeat(MAX_JSON_DEPTH)
        );
        validate_json(&at_cap).unwrap();
        let objects = format!(
            "{}1{}",
            "{\"k\":".repeat(MAX_JSON_DEPTH),
            "}".repeat(MAX_JSON_DEPTH)
        );
        validate_json(&objects).unwrap();
        let past_cap = format!("[{at_cap}]");
        let err = validate_json(&past_cap).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        // Hostile input: far deeper than any stack would survive unbounded.
        let err = validate_json(&"[".repeat(200_000)).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
    }
}
