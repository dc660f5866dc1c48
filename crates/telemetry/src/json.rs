//! The workspace's one JSON codec: a minimal tree that writes and re-reads
//! the bench records, the harness records and telemetry [`Snapshot`]s
//! without a serde dependency (the build is offline).
//!
//! Numbers are written with Rust's shortest-round-trip float formatting and
//! parsed with `f64::from_str`, so a value survives write→parse with its
//! exact bits — the property the record/compare protocol relies on.
//! Non-finite values (a diverged run's NaN loss) are written as `null` and
//! read back as [`Json::Null`]. An unsigned integer literal above 2⁵³, which
//! `f64` cannot hold exactly, parses to [`Json::Int`] so `u64` counters
//! survive the trip; every smaller integer stays a [`Json::Num`].
//!
//! Parsing is total: a literal that overflows `f64` (`1e999`) and nesting
//! deeper than 128 levels are errors, not an infinity that would render as
//! unreadable `inf` or a recursion that overflows the stack.
//!
//! [`Snapshot`]: crate::Snapshot

use std::fmt::Write as _;

/// 2⁵³: every integer up to here is exact in an `f64`.
const F64_EXACT_INT: u64 = 1 << 53;

/// Deepest array/object nesting [`Json::parse`] accepts. The records nest a
/// handful of levels; the cap bounds the parser's recursion.
const MAX_DEPTH: usize = 128;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null` (also stands in for non-finite floats).
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number.
    Num(f64),
    /// An unsigned integer above 2⁵³ (see [`Json::uint`]).
    Int(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object as an ordered key→value list (insertion order preserved).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Wraps a float, mapping non-finite values to [`Json::Null`].
    pub fn num(v: f64) -> Json {
        if v.is_finite() {
            Json::Num(v)
        } else {
            Json::Null
        }
    }

    /// Wraps an unsigned integer exactly: [`Json::Num`] up to 2⁵³, where
    /// `f64` holds every integer, [`Json::Int`] above. This is the form
    /// [`Json::parse`] gives the integer back in.
    pub fn uint(v: u64) -> Json {
        if v <= F64_EXACT_INT {
            Json::Num(v as f64)
        } else {
            Json::Int(v)
        }
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(v) => Some(*v),
            Json::Int(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The exact unsigned integer, if this is a non-negative whole number.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Int(v) => Some(*v),
            Json::Num(v) if *v >= 0.0 && v.fract() == 0.0 && *v < u64::MAX as f64 => {
                Some(*v as u64)
            }
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Bit-exact equality: numbers compare by `f64::to_bits` (so `-0.0`
    /// and `0.0` differ), everything else structurally.
    pub fn bit_eq(&self, other: &Json) -> bool {
        match (self, other) {
            (Json::Num(a), Json::Num(b)) => a.to_bits() == b.to_bits(),
            (Json::Arr(a), Json::Arr(b)) => {
                a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.bit_eq(y))
            }
            (Json::Obj(a), Json::Obj(b)) => {
                a.len() == b.len()
                    && a.iter()
                        .zip(b)
                        .all(|((ka, va), (kb, vb))| ka == kb && va.bit_eq(vb))
            }
            _ => self == other,
        }
    }

    /// Serializes with 2-space indentation and a trailing newline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write_into(&mut out, 0);
        out.push('\n');
        out
    }

    fn write_into(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(v) => {
                // Shortest round-trip representation; integral values keep
                // a plain integer form.
                let _ = write!(out, "{v}");
            }
            Json::Int(v) => {
                let _ = write!(out, "{v}");
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                // Arrays of scalars stay on one line; nested values indent.
                let nested = items
                    .iter()
                    .any(|v| matches!(v, Json::Arr(_) | Json::Obj(_)));
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    if nested {
                        out.push('\n');
                        indent(out, depth + 1);
                    } else if i > 0 {
                        out.push(' ');
                    }
                    item.write_into(out, depth + 1);
                }
                if nested {
                    out.push('\n');
                    indent(out, depth);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    indent(out, depth + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write_into(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
        }
    }

    /// Parses a JSON document.
    ///
    /// # Errors
    ///
    /// A position-annotated message on malformed input, a number literal
    /// outside `f64`'s range, nesting deeper than 128 levels, or trailing
    /// garbage.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(bytes, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing data at byte {pos}"));
        }
        Ok(value)
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\n' | b'\t' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if *pos < bytes.len() && bytes[*pos] == c {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected '{}' at byte {pos}", c as char))
    }
}

/// The value at `pos`, inside `depth` enclosing arrays/objects.
fn parse_value(bytes: &[u8], pos: &mut usize, depth: usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    if depth == MAX_DEPTH && matches!(bytes.get(*pos), Some(b'[' | b'{')) {
        return Err(format!("nesting deeper than {MAX_DEPTH} at byte {pos}"));
    }
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'n') => parse_keyword(bytes, pos, "null", Json::Null),
        Some(b't') => parse_keyword(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_keyword(bytes, pos, "false", Json::Bool(false)),
        Some(b'"') => parse_string(bytes, pos).map(Json::Str),
        Some(b'[') => {
            *pos += 1;
            let mut items = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b']') {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            loop {
                items.push(parse_value(bytes, pos, depth + 1)?);
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b']') => {
                        *pos += 1;
                        return Ok(Json::Arr(items));
                    }
                    _ => return Err(format!("expected ',' or ']' at byte {pos}")),
                }
            }
        }
        Some(b'{') => {
            *pos += 1;
            let mut fields = Vec::new();
            skip_ws(bytes, pos);
            if bytes.get(*pos) == Some(&b'}') {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            loop {
                skip_ws(bytes, pos);
                let key = parse_string(bytes, pos)?;
                skip_ws(bytes, pos);
                expect(bytes, pos, b':')?;
                fields.push((key, parse_value(bytes, pos, depth + 1)?));
                skip_ws(bytes, pos);
                match bytes.get(*pos) {
                    Some(b',') => *pos += 1,
                    Some(b'}') => {
                        *pos += 1;
                        return Ok(Json::Obj(fields));
                    }
                    _ => return Err(format!("expected ',' or '}}' at byte {pos}")),
                }
            }
        }
        Some(_) => parse_number(bytes, pos),
    }
}

fn parse_keyword(bytes: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("malformed literal at byte {pos}"))
    }
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".into()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b't') => out.push('\t'),
                    Some(b'r') => out.push('\r'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                            16,
                        )
                        .map_err(|e| format!("bad \\u escape: {e}"))?;
                        out.push(char::from_u32(code).ok_or("non-scalar \\u escape")?);
                        *pos += 4;
                    }
                    _ => return Err(format!("unsupported escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (input is a &str, so boundaries
                // are valid).
                let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|e| e.to_string())?;
                let c = rest.chars().next().expect("non-empty rest");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let token = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    // An unsigned integer literal stays exact; one past `u64` reads as f64.
    if token.bytes().all(|b| b.is_ascii_digit()) {
        if let Ok(v) = token.parse::<u64>() {
            return Ok(Json::uint(v));
        }
    }
    match token.parse::<f64>() {
        Ok(v) if v.is_finite() => Ok(Json::Num(v)),
        Ok(_) => Err(format!("number '{token}' at byte {start} overflows f64")),
        Err(_) => Err(format!("malformed number '{token}' at byte {start}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn floats_round_trip_bit_exactly() {
        for v in [
            0.1f64,
            -0.0,
            3.0,
            1.0e-300,
            f64::MIN_POSITIVE,
            0.123_456_789_012_345_68,
            -2.5e17,
        ] {
            let doc = Json::Obj(vec![("v".into(), Json::num(v))]);
            let back = Json::parse(&doc.render()).unwrap();
            let got = back.get("v").unwrap().as_f64().unwrap();
            assert_eq!(got.to_bits(), v.to_bits(), "{v} must survive the trip");
        }
        // Non-finite values become null (and stay null on re-parse).
        let doc = Json::Obj(vec![("v".into(), Json::num(f64::NAN))]);
        assert_eq!(
            *Json::parse(&doc.render()).unwrap().get("v").unwrap(),
            Json::Null
        );
    }

    #[test]
    fn nested_structures_round_trip() {
        let doc = Json::Obj(vec![
            ("name".into(), Json::Str("fast \"bfp\"\n".into())),
            ("ok".into(), Json::Bool(true)),
            (
                "records".into(),
                Json::Arr(vec![
                    Json::Obj(vec![("seed".into(), Json::Num(1.0))]),
                    Json::Obj(vec![("seed".into(), Json::Num(2.0))]),
                ]),
            ),
            ("empty".into(), Json::Arr(vec![])),
            (
                "steps".into(),
                Json::Arr(vec![Json::Num(1.0), Json::Num(2.0)]),
            ),
        ]);
        let text = doc.render();
        let back = Json::parse(&text).unwrap();
        assert!(back.bit_eq(&doc), "parse(render(x)) == x:\n{text}");
        // Rendering is a pure function of the tree.
        assert_eq!(text, Json::parse(&text).unwrap().render());
    }

    #[test]
    fn malformed_inputs_are_rejected() {
        for bad in [
            "",
            "{",
            "[1,]",
            "[1,2",
            "\"abc",
            "{\"a\" 1}",
            "12 34",
            "nul",
            "\"\\q\"",
            "1e999",
            "-1e999",
            "[1e309]",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} must not parse");
        }
        // Nesting past the cap is an error, not a stack overflow — and the
        // cap itself still parses.
        let deep = |n: usize| "[".repeat(n) + &"]".repeat(n);
        let err = Json::parse(&deep(100_000)).unwrap_err();
        assert!(err.contains("nesting deeper than"), "{err}");
        assert!(Json::parse(&"{\"a\":".repeat(MAX_DEPTH + 1)).is_err());
        assert!(Json::parse(&deep(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&deep(MAX_DEPTH + 1)).is_err());
    }

    #[test]
    fn integers_above_two_to_the_53_round_trip_exactly() {
        for v in [u64::MAX, F64_EXACT_INT + 1] {
            let text = Json::uint(v).render();
            assert_eq!(text.trim_end(), v.to_string());
            let back = Json::parse(&text).unwrap();
            assert_eq!(back, Json::Int(v));
            assert_eq!(back.as_u64(), Some(v));
        }
        // Up to 2⁵³ an integer is an ordinary number, as it always parsed.
        assert_eq!(Json::parse("3").unwrap(), Json::Num(3.0));
        assert_eq!(
            Json::parse("9007199254740992").unwrap(),
            Json::Num(F64_EXACT_INT as f64)
        );
        assert_eq!(Json::uint(3), Json::Num(3.0));
        // Signed, fractional and past-u64 literals stay floats.
        assert_eq!(Json::parse("-7").unwrap(), Json::Num(-7.0));
        assert_eq!(Json::parse("3.0").unwrap(), Json::Num(3.0));
        assert_eq!(
            Json::parse("18446744073709551616").unwrap(),
            Json::Num(18446744073709551616.0)
        );
        assert_eq!(Json::Num(2.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
    }

    #[test]
    fn backspace_and_form_feed_escapes_are_accepted() {
        let back = Json::parse(r#""a\bb\fc\/""#).unwrap();
        assert_eq!(back, Json::Str("a\u{8}b\u{c}c/".into()));
        // Written as `\u` escapes, they read back as the same string.
        assert_eq!(Json::parse(&back.render()).unwrap(), back);
    }

    #[test]
    fn committed_records_parse() {
        let root = concat!(env!("CARGO_MANIFEST_DIR"), "/../..");
        for name in [
            "BENCH_quant_gemm.json",
            "BENCH_serve.json",
            "BENCH_variability.json",
        ] {
            let text = std::fs::read_to_string(format!("{root}/{name}")).unwrap();
            let doc = Json::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"));
            assert!(doc.get("current").is_some() || doc.get("records").is_some());
            // Timing records keep what one run measured: no cross-session
            // comparison blocks.
            for key in ["baseline", "speedup"] {
                assert!(doc.get(key).is_none(), "{name} holds `{key}`");
            }
        }
    }
}
