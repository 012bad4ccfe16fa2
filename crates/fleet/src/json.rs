//! Minimal JSON reader/writer for campaign specs, journals and reports.
//!
//! The build environment vendors a no-op `serde` shim (see `vendor/serde`),
//! so the fleet crate carries its own small JSON layer: a recursive-descent
//! parser into a [`Json`] tree plus string-building write helpers.  Two
//! properties matter here and drove the design:
//!
//! * **Numbers keep their source text.**  [`Json::Num`] stores the raw
//!   token, so `u64` seeds beyond 2^53 and shortest-round-trip `f64`s are
//!   re-extracted exactly — nothing is funnelled through a lossy `f64`.
//! * **Writing is deterministic.**  Emission helpers produce a stable key
//!   order and Rust's shortest-round-trip float formatting, which is what
//!   makes journal records and canonical reports byte-reproducible.

use std::fmt::Write as _;

/// Deepest array/object nesting [`Json::parse`] accepts.  The parser
/// recurses once per level and reads untrusted input (wire messages,
/// journals, spec files); legitimate documents nest a few levels, so the
/// cap keeps a short line of brackets from overflowing a thread's stack.
pub const MAX_DEPTH: usize = 64;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number, kept as its raw source text.
    Num(String),
    /// A string (unescaped).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; insertion order preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a complete JSON document (trailing whitespace allowed).
    ///
    /// # Errors
    ///
    /// Returns a message with the byte offset of the first syntax error.
    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0usize;
        let value = parse_value(text, &mut pos, 0)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing content at byte {pos}"));
        }
        Ok(value)
    }

    /// Object field lookup.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as `f64` (numbers only).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as `u64` (integral numbers only).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as `usize` (integral numbers only).
    pub fn as_usize(&self) -> Option<usize> {
        match self {
            Json::Num(raw) => raw.parse().ok(),
            _ => None,
        }
    }

    /// The value as `bool`.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as a string slice.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as an array slice.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

/// Parses one value inside `depth` enclosing arrays/objects.
fn parse_value(text: &str, pos: &mut usize, depth: usize) -> Result<Json, String> {
    let bytes = text.as_bytes();
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        None => Err("unexpected end of input".into()),
        Some(b'{' | b'[') if depth == MAX_DEPTH => Err(format!(
            "nesting deeper than {MAX_DEPTH} levels at byte {pos}"
        )),
        Some(b'{') => parse_obj(text, pos, depth + 1),
        Some(b'[') => parse_arr(text, pos, depth + 1),
        Some(b'"') => Ok(Json::Str(parse_string(text, pos)?)),
        Some(b't') => parse_lit(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(bytes, pos, "null", Json::Null),
        Some(_) => parse_num(bytes, pos),
    }
}

fn parse_lit(bytes: &[u8], pos: &mut usize, lit: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(value)
    } else {
        Err(format!("bad literal at byte {pos}"))
    }
}

fn parse_num(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < bytes.len()
        && matches!(bytes[*pos], b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E')
    {
        *pos += 1;
    }
    let raw = std::str::from_utf8(&bytes[start..*pos]).map_err(|_| "bad utf8".to_string())?;
    if raw.is_empty() || raw.parse::<f64>().is_err() {
        return Err(format!("bad number at byte {start}"));
    }
    Ok(Json::Num(raw.to_string()))
}

/// Reads the four hex digits of a `\u` escape starting at `start`.
fn read_hex4(bytes: &[u8], start: usize) -> Result<u32, String> {
    let hex = bytes.get(start..start + 4).ok_or("truncated \\u escape")?;
    u32::from_str_radix(std::str::from_utf8(hex).map_err(|_| "bad utf8")?, 16)
        .map_err(|_| "bad \\u escape".to_string())
}

fn parse_string(text: &str, pos: &mut usize) -> Result<String, String> {
    let bytes = text.as_bytes();
    debug_assert_eq!(bytes[*pos], b'"');
    *pos += 1;
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
                        let hi = read_hex4(bytes, *pos + 1)?;
                        *pos += 4;
                        let mut code = hi;
                        if (0xD800..0xDC00).contains(&hi)
                            && bytes.get(*pos + 1) == Some(&b'\\')
                            && bytes.get(*pos + 2) == Some(&b'u')
                        {
                            // JSON encodes astral characters as a UTF-16
                            // surrogate pair of \u escapes.
                            if let Ok(lo) = read_hex4(bytes, *pos + 3) {
                                if (0xDC00..0xE000).contains(&lo) {
                                    *pos += 6;
                                    code = 0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00);
                                }
                            }
                        }
                        // Unpaired surrogates have no scalar value; they
                        // degrade to U+FFFD rather than failing the parse.
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                    }
                    _ => return Err(format!("bad escape at byte {pos}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // Copy the run up to the next quote or backslash.  Both are
                // ASCII, so the run ends on a character boundary of the
                // already-valid text, and a string costs time linear in its
                // length.
                let end = bytes[*pos..]
                    .iter()
                    .position(|&b| b == b'"' || b == b'\\')
                    .map_or(bytes.len(), |n| *pos + n);
                out.push_str(&text[*pos..end]);
                *pos = end;
            }
        }
    }
}

fn parse_arr(text: &str, pos: &mut usize, depth: usize) -> Result<Json, String> {
    let bytes = text.as_bytes();
    *pos += 1; // consume '['
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(text, pos, depth)?);
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

fn parse_obj(text: &str, pos: &mut usize, depth: usize) -> Result<Json, String> {
    let bytes = text.as_bytes();
    *pos += 1; // consume '{'
    let mut fields = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b'"') {
            return Err(format!("expected object key at byte {pos}"));
        }
        let key = parse_string(text, pos)?;
        skip_ws(bytes, pos);
        if bytes.get(*pos) != Some(&b':') {
            return Err(format!("expected ':' at byte {pos}"));
        }
        *pos += 1;
        let value = parse_value(text, pos, depth)?;
        fields.push((key, value));
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

/// Escapes `s` as JSON string contents (no surrounding quotes).
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
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
    out
}

/// Formats an `f64` deterministically: Rust's shortest round-trip decimal,
/// which `str::parse::<f64>` recovers bit-exactly.  Non-finite values have
/// no JSON form and must not occur in records; they map to `null`.
pub fn fmt_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_nested_document() {
        let doc = r#"{"a": [1, 2.5, -3e2], "b": {"c": "x\ny", "d": true}, "e": null}"#;
        let v = Json::parse(doc).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("a").unwrap().as_arr().unwrap()[1].as_f64(), Some(2.5));
        assert_eq!(v.get("b").unwrap().get("c").unwrap().as_str(), Some("x\ny"));
        assert_eq!(v.get("b").unwrap().get("d").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("e"), Some(&Json::Null));
    }

    #[test]
    fn numbers_keep_full_precision() {
        let v = Json::parse(r#"{"seed": 18446744073709551615, "x": 0.1}"#).unwrap();
        assert_eq!(v.get("seed").unwrap().as_u64(), Some(u64::MAX));
        assert_eq!(v.get("x").unwrap().as_f64(), Some(0.1));
    }

    #[test]
    fn f64_round_trips_through_text() {
        for v in [0.0, 1.0 / 3.0, 123456.789, 1e-12, -0.125, f64::MAX] {
            let text = fmt_f64(v);
            assert_eq!(text.parse::<f64>().unwrap().to_bits(), v.to_bits());
        }
    }

    #[test]
    fn escape_round_trips() {
        let s = "a\"b\\c\nd\te\u{1}";
        let doc = format!("{{\"k\": \"{}\"}}", escape(s));
        let v = Json::parse(&doc).unwrap();
        assert_eq!(v.get("k").unwrap().as_str(), Some(s));
    }

    #[test]
    fn surrogate_pairs_decode_to_astral_chars() {
        // The standard JSON encoding of non-BMP characters (what
        // json.dumps / jq emit): a \u surrogate pair.
        let v = Json::parse(r#"{"name": "\ud83d\ude00!"}"#).unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("\u{1F600}!"));
        // Literal (already-UTF-8) astral characters pass through too.
        let v = Json::parse("{\"name\": \"\u{1F600}\"}").unwrap();
        assert_eq!(v.get("name").unwrap().as_str(), Some("\u{1F600}"));
        // An unpaired high surrogate degrades to U+FFFD, not an error.
        let v = Json::parse(r#"{"k": "\ud83dx"}"#).unwrap();
        assert_eq!(v.get("k").unwrap().as_str(), Some("\u{fffd}x"));
    }

    #[test]
    fn long_strings_decode_in_linear_time() {
        // About 4 MiB of ASCII, two-, three- and four-byte characters and
        // escapes, surrogate pairs among them.  Re-validating the rest of
        // the input per character made this take minutes.
        let literal = "plain ascii, caf\u{e9} \u{65e5}\u{672c} \u{1F600} ";
        let escaped = r#"\ud83d\ude00 \u00e9\n\"\\ "#;
        let decoded = "\u{1F600} \u{e9}\n\"\\ ";
        let mut doc = String::from(r#"{"k": ""#);
        let mut want = String::new();
        while doc.len() < 4 << 20 {
            doc.push_str(literal);
            doc.push_str(escaped);
            want.push_str(literal);
            want.push_str(decoded);
        }
        doc.push_str(r#""}"#);
        let v = Json::parse(&doc).unwrap();
        assert_eq!(v.get("k").unwrap().as_str(), Some(want.as_str()));
    }

    #[test]
    fn nesting_past_the_cap_is_an_error_not_a_stack_overflow() {
        // 100 000 levels recurse far past a 2 MiB stack — the stack every
        // dispatcher connection thread parses its first line on.
        let deep = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| Json::parse(&"[".repeat(100_000)))
            .unwrap()
            .join()
            .expect("parsing must not overflow the stack");
        assert!(deep.unwrap_err().contains("nesting"));
        let nested = |open: &str, close: &str, levels: usize| {
            format!("{}1{}", open.repeat(levels), close.repeat(levels))
        };
        for (open, close) in [("[", "]"), ("{\"k\":", "}")] {
            assert!(Json::parse(&nested(open, close, MAX_DEPTH)).is_ok());
            assert!(Json::parse(&nested(open, close, MAX_DEPTH + 1)).is_err());
        }
    }

    #[test]
    fn rejects_malformed() {
        for bad in ["{", "[1,", "{\"a\" 1}", "tru", "1 2", "{\"a\":}"] {
            assert!(Json::parse(bad).is_err(), "{bad} should fail");
        }
    }
}
